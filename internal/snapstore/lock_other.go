//go:build !unix || aix || solaris

package snapstore

import "os"

// lockDir takes no lock where flock is not available, so there another
// writer's sweep deletes a save in flight, and a commit drops a generation
// a reader holds.
func lockDir(path string, shared bool) (*os.File, error) { return nil, nil }

// tryLockDir reports every directory as free, with no handle.
func tryLockDir(path string) (*os.File, bool, error) { return nil, true, nil }
