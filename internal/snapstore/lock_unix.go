//go:build unix && !aix && !solaris

package snapstore

import (
	"errors"
	"io/fs"
	"os"
	"syscall"
)

// lockDir takes a flock on the directory at path, shared for a reader's
// hold or exclusive for a writer, waiting for a conflicting one to go, and
// returns the handle that holds it; closing the handle releases the lock,
// and so does the death of the process. The lock belongs to the
// directory's inode, so it follows the directory through a rename.
func lockDir(path string, shared bool) (*os.File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	how := syscall.LOCK_EX
	if shared {
		how = syscall.LOCK_SH
	}
	if err := syscall.Flock(int(f.Fd()), how); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// tryLockDir takes an exclusive lock without waiting: ok is false, with a
// nil error, when another handle holds a lock on path. A path that is gone
// is free: ok is true, with no handle.
func tryLockDir(path string) (f *os.File, ok bool, err error) {
	f, err = os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, true, nil
	}
	if err != nil {
		return nil, false, err
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		if errors.Is(err, syscall.EWOULDBLOCK) {
			return nil, false, nil
		}
		return nil, false, err
	}
	return f, true, nil
}
