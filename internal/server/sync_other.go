//go:build !linux

package server

import "os"

// fdatasync makes f durable; without fdatasync(2) that is a full fsync.
func fdatasync(f *os.File) error { return f.Sync() }
