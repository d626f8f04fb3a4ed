//go:build unix

package recordlog

import (
	"os"
	"syscall"
)

// LockExcludes reports whether TryLock excludes other processes. On unix it
// does: a held lock proves a live owner, and a crashed owner's lock
// vanishes with its process.
const LockExcludes = true

// TryLock attempts a non-blocking exclusive flock on f.
func TryLock(f *os.File) bool {
	return syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB) == nil
}

// Unlock releases a lock TryLock took.
func Unlock(f *os.File) {
	_ = syscall.Flock(int(f.Fd()), syscall.LOCK_UN)
}
