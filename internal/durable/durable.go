// Package durable is the one place the dist and svc journals flush a file to
// stable storage. Both journals write most records unsynced and flush only
// the records whose loss would lose work or an acknowledgement (see their
// doc comments); routing every flush through Sync is what lets a test count
// them.
package durable

import "os"

// Sync flushes f's written data to stable storage. It is a variable only so
// tests can count or fail flushes; production code never reassigns it.
var Sync = (*os.File).Sync
