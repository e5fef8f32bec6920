//go:build unix && !aix && !solaris

package snapstore

import (
	"errors"
	"io/fs"
	"os"
	"syscall"
)

// lockDir takes an exclusive flock on the directory at path and returns
// the handle that holds it; closing the handle releases the lock, and so
// does the death of the process. The lock belongs to the directory's
// inode, so it follows the directory through a rename.
func lockDir(path string) (*os.File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// tryLockDir is lockDir without waiting: ok is false, with a nil error,
// when another handle holds the lock or path is gone.
func tryLockDir(path string) (f *os.File, ok bool, err error) {
	f, err = os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
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
