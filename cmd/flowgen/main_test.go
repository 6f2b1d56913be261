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
// profile answers to, and with each out-of-range numeric flag: every
// one must exit 2 naming the flag rather than silently simulate a
// default, panic, or print an empty report.
func TestUnknownKernelRejected(t *testing.T) {
	if args := os.Getenv("FLOWGEN_RUN_MAIN"); args != "" {
		os.Args = append([]string{"flowgen"}, strings.Fields(args)...)
		main()
		return
	}
	for _, in := range [][2]string{
		{"-kernel", "5.10"},
		{"-size", "-1"},
		{"-size", "0"},
		{"-flows", "0"},
		{"-link", "-5"},
		{"-link", "0"},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestUnknownKernelRejected$")
		cmd.Env = append(os.Environ(), "FLOWGEN_RUN_MAIN="+in[0]+" "+in[1])
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("flowgen %s %s: err = %v, want exit status 2 (stderr: %s)", in[0], in[1], err, stderr.String())
		}
		if !strings.Contains(stderr.String(), in[0]+":") {
			t.Fatalf("flowgen %s %s: error does not name the flag: %s", in[0], in[1], stderr.String())
		}
	}
}
