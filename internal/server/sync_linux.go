package server

import (
	"os"
	"syscall"
)

// fdatasync makes f's data durable, with the metadata needed to read it
// back (its size), but not its timestamps.
func fdatasync(f *os.File) error {
	rc, err := f.SyscallConn()
	if err != nil {
		return err
	}
	var serr error
	err = rc.Control(func(fd uintptr) {
		for {
			// Retried on EINTR, as os.File.Sync retries fsync.
			if serr = syscall.Fdatasync(int(fd)); serr != syscall.EINTR {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	if serr != nil {
		return &os.PathError{Op: "fdatasync", Path: f.Name(), Err: serr}
	}
	return nil
}
