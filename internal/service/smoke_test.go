package service

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestDaemonSmoke is the end-to-end service test over the real binaries:
// it builds cmd/symsimd and cmd/symsim, checks that both refuse the
// retired -engine and -lanes flags, the client its retired -priority and
// the daemon its retired fleet and heartbeat flags, boots the daemon on a
// loopback
// port, submits a dr5/tea8 job with the CLI client in -follow mode,
// verifies the streamed run completes with a result, checks that an
// identical resubmission is a cache hit, and shuts the daemon down with
// SIGTERM. Linux-gated (process signalling) and skipped under -short.
func TestDaemonSmoke(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("daemon smoke test is linux-only")
	}
	if testing.Short() {
		t.Skip("skipping daemon smoke test in -short mode")
	}

	bin := t.TempDir()
	daemonBin := filepath.Join(bin, "symsimd")
	cliBin := filepath.Join(bin, "symsim")
	for _, b := range []struct{ out, pkg string }{
		{daemonBin, "symsim/cmd/symsimd"},
		{cliBin, "symsim/cmd/symsim"},
	} {
		cmd := exec.Command("go", "build", "-o", b.out, b.pkg)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", b.pkg, err, out)
		}
	}

	// The engine and its lanes are no flags at either command, the queue
	// is a FIFO with no priority, the heartbeat interval is fixed and the
	// daemon has no fleet mode: naming one is a usage error (exit 2)
	// before an analysis runs, a job is posted or a port is bound.
	for _, args := range [][]string{
		{cliBin, "-design", "dr5", "-bench", "tea8", "-engine", "batch"},
		{cliBin, "submit", "-design", "dr5", "-bench", "tea8", "-lanes", "8"},
		{daemonBin, "-lanes", "8"},
		{daemonBin, "-coordinator"},
		{daemonBin, "-worker", "http://127.0.0.1:1"},
		{cliBin, "submit", "-server", "http://127.0.0.1:1", "-design", "dr5", "-bench", "tea8", "-priority", "3"},
		{daemonBin, "-progress-every", "50ms"},
	} {
		out, err := exec.Command(args[0], args[1:]...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "flag provided but not defined") {
			t.Errorf("%s %s: %v, want a usage error (exit 2)\n%s", filepath.Base(args[0]), strings.Join(args[1:], " "), err, out)
		}
	}

	// Reserve a loopback port for the daemon.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	server := "http://" + addr

	data := t.TempDir()
	daemon := exec.Command(daemonBin, "-listen", addr, "-data", data)
	var daemonLog strings.Builder
	daemon.Stdout = &daemonLog
	daemon.Stderr = &daemonLog
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	// daemonDone is closed after Wait so both the shutdown check and the
	// deferred cleanup can receive from it without deadlocking.
	daemonDone := make(chan error, 1)
	go func() { daemonDone <- daemon.Wait(); close(daemonDone) }()
	defer func() {
		daemon.Process.Signal(syscall.SIGKILL)
		<-daemonDone
	}()

	waitHealthy(t, server, daemonDone, &daemonLog)

	submit := func() string {
		cmd := exec.Command(cliBin, "submit", "-server", server,
			"-design", "dr5", "-bench", "tea8", "-follow")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("symsim submit: %v\n%s\ndaemon log:\n%s", err, out, daemonLog.String())
		}
		return string(out)
	}

	first := submit()
	if !strings.Contains(first, `"complete": true`) || !strings.Contains(first, `"tieOffs"`) {
		t.Fatalf("first submission output missing completed result:\n%s", first)
	}
	if strings.Contains(first, "cache hit") {
		t.Fatalf("first submission claims a cache hit:\n%s", first)
	}

	second := submit()
	if !strings.Contains(second, "cache hit") {
		t.Fatalf("identical resubmission was not a cache hit:\n%s", second)
	}
	if !strings.Contains(second, `"complete": true`) {
		t.Fatalf("cached result not served:\n%s", second)
	}

	// Graceful shutdown: SIGTERM drains and exits cleanly.
	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-daemonDone:
		if err != nil {
			t.Fatalf("daemon exited with %v\nlog:\n%s", err, daemonLog.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon did not exit on SIGTERM\nlog:\n%s", daemonLog.String())
	}
}

func waitHealthy(t *testing.T, server string, daemonDone <-chan error, log fmt.Stringer) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-daemonDone:
			t.Fatalf("daemon exited during startup: %v\nlog:\n%s", err, log.String())
		default:
		}
		resp, err := http.Get(server + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("daemon never became healthy\nlog:\n%s", log.String())
}
