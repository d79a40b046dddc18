package main

import "testing"

// The example is documentation that compiles; this keeps it documentation
// that runs. main log.Fatals on any error, which fails the test binary.
func TestExampleRuns(t *testing.T) { main() }
