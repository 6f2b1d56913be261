package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestUnknownKernelRejected runs the command with a kernel name no cost
// profile answers to: it must exit 2 naming the flag rather than
// silently simulate the 4.19 default.
func TestUnknownKernelRejected(t *testing.T) {
	if os.Getenv("FLOWGEN_RUN_MAIN") == "1" {
		os.Args = []string{"flowgen", "-kernel", "5.10"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestUnknownKernelRejected$")
	cmd.Env = append(os.Environ(), "FLOWGEN_RUN_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("flowgen -kernel 5.10: err = %v, want exit status 2 (stderr: %s)", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "-kernel") {
		t.Fatalf("error does not name the flag: %s", stderr.String())
	}
}
