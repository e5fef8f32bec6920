//go:build !unix || aix || solaris

package snapstore

import "os"

// lockDir takes no lock where flock is not available, so there another
// writer's sweep deletes a save in flight.
func lockDir(path string) (*os.File, error) { return nil, nil }

// tryLockDir reports every directory as free to sweep, with no handle.
func tryLockDir(path string) (*os.File, bool, error) { return nil, true, nil }
