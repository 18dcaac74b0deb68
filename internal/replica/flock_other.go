//go:build !unix

package replica

// lockExclusive is a no-op on platforms without flock: Lease falls back
// to in-process mutual exclusion only (l.mu), which still serializes a
// primary and standby hosted in one process — the arrangement every
// test uses. Cross-process fencing on such platforms relies on the
// guard's epoch/expiry checks alone.
func lockExclusive(string) (unlock func(), err error) {
	return func() {}, nil
}
