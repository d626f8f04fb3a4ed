//go:build !unix

package recordlog

import "os"

// LockExcludes reports whether TryLock excludes other processes. Without
// flock it does not: every lock is granted, so two live writers over one
// journal or catalog directory interleave appends, and a held lock proves
// nothing about whether its owner is alive. Unix hosts (the deployment
// target) get the real lock.
const LockExcludes = false

// TryLock grants every lock.
func TryLock(f *os.File) bool { return true }

// Unlock releases a lock TryLock took.
func Unlock(f *os.File) {}
