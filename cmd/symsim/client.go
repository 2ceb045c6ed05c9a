package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"symsim/internal/cliflags"
	"symsim/internal/httpx"
	"symsim/internal/service"
)

// clientMain implements the daemon-client subcommands (submit, status,
// result, cancel, jobs) against a running symsimd. Returns the process
// exit code.
func clientMain(cmd string, args []string) int {
	switch cmd {
	case "submit":
		return submitCmd(args)
	case "status":
		return jobGetCmd("status", args, func(server, id string) error {
			return getJSON(server+"/jobs/"+id, prettyPrint)
		})
	case "result":
		return jobGetCmd("result", args, func(server, id string) error {
			return getJSON(server+"/jobs/"+id+"/result", prettyPrint)
		})
	case "cancel":
		return jobGetCmd("cancel", args, func(server, id string) error {
			resp, err := postIdempotent(server + "/jobs/" + id + "/cancel")
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			return checkStatus(resp)
		})
	case "jobs":
		fs := flag.NewFlagSet("symsim jobs", flag.ExitOnError)
		server := serverFlag(fs)
		fs.Parse(args)
		if err := getJSON(*server+"/jobs", printJobTable); err != nil {
			fmt.Fprintln(os.Stderr, "symsim:", err)
			return 1
		}
		return 0
	}
	fmt.Fprintf(os.Stderr, "symsim: unknown subcommand %q\n", cmd)
	return 2
}

func serverFlag(fs *flag.FlagSet) *string {
	return fs.String("server", "http://localhost:8466", "symsimd base URL")
}

// submitCmd posts a job built from -design/-bench plus the shared analysis
// tuning flags (cliflags — the same vocabulary the one-shot CLI and the
// daemon use). With -follow it stays attached to the job's SSE stream and
// prints the result when the job completes.
func submitCmd(args []string) int {
	fs := flag.NewFlagSet("symsim submit", flag.ExitOnError)
	server := serverFlag(fs)
	design := fs.String("design", "", "processor: bm32 | omsp430 | dr5 (required)")
	bench := fs.String("bench", "", "benchmark to analyze (required)")
	priority := fs.Int("priority", 0, "queue priority (higher runs first)")
	follow := fs.Bool("follow", false, "stream progress until the job finishes, then print the result")
	tuning := cliflags.Register(fs)
	fs.Parse(args)
	if *design == "" || *bench == "" {
		fmt.Fprintln(os.Stderr, "symsim submit: -design and -bench are required")
		return 2
	}

	spec := tuning.Spec
	spec.Design, spec.Bench, spec.Priority = *design, *bench, *priority
	body, err := json.Marshal(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "symsim:", err)
		return 1
	}
	resp, err := postOnce(func() (*http.Request, error) {
		req, err := http.NewRequest(http.MethodPost, *server+"/jobs", bytes.NewReader(body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
		return req, err
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "symsim:", err)
		return 1
	}
	defer resp.Body.Close()
	if err := checkStatus(resp); err != nil {
		fmt.Fprintln(os.Stderr, "symsim:", err)
		return 1
	}
	var view service.JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		fmt.Fprintln(os.Stderr, "symsim:", err)
		return 1
	}
	fmt.Printf("job %s  %s", view.ID, view.State)
	if view.Cached {
		fmt.Print("  (cache hit)")
	}
	fmt.Println()

	if !*follow {
		return 0
	}
	final, err := followJob(*server, view.ID)
	if err != nil {
		fmt.Fprintln(os.Stderr, "symsim:", err)
		return 1
	}
	if final == service.StateDone {
		if err := getJSON(*server+"/jobs/"+view.ID+"/result", prettyPrint); err != nil {
			fmt.Fprintln(os.Stderr, "symsim:", err)
			return 1
		}
		return 0
	}
	fmt.Fprintf(os.Stderr, "symsim: job ended %s\n", final)
	return 1
}

// maxStreamRetries bounds consecutive failed SSE reconnect attempts; any
// successfully received event resets the budget.
const maxStreamRetries = 6

// followJob follows the job's SSE stream to its terminal state, echoing
// progress heartbeats to stderr. A killed connection reconnects with
// jittered backoff, resuming from the last received `id:` via the
// Last-Event-ID header — the server replays the missed window from its
// ring buffer, so no lifecycle event is duplicated or lost across the
// reconnect.
func followJob(server, id string) (service.State, error) {
	var lastEventID string
	failures := 0
	for {
		gotAny, st, err := streamEventsOnce(server, id, &lastEventID)
		if st != "" {
			return st, nil
		}
		if gotAny {
			failures = 0
		}
		// The stream ended without delivering a terminal event. Ask the
		// job API directly before reconnecting: a resumed stream ends
		// silently when this client already saw the terminal event, and a
		// job may finish while the stream is down.
		if view, verr := fetchJob(server, id); verr == nil && terminalState(view.State) {
			if lastEventID == "" {
				// No event ever printed the state; say it once here.
				fmt.Fprintf(os.Stderr, "symsim: job %s %s\n", id, view.State)
			}
			return view.State, nil
		}
		failures++
		if failures > maxStreamRetries {
			if err == nil {
				err = fmt.Errorf("event stream for job %s ended without a terminal state", id)
			}
			return "", err
		}
		d := httpx.Backoff(failures - 1)
		fmt.Fprintf(os.Stderr, "symsim: event stream interrupted, reconnecting in %v\n", d.Round(time.Millisecond))
		time.Sleep(d)
	}
}

// streamEventsOnce runs one SSE connection. It updates *lastEventID from
// `id:` lines as events arrive, returns the terminal state if one was
// observed, and reports whether any event landed (to reset the caller's
// retry budget).
func streamEventsOnce(server, id string, lastEventID *string) (gotAny bool, st service.State, err error) {
	req, err := http.NewRequest(http.MethodGet, server+"/jobs/"+id+"/events", nil)
	if err != nil {
		return false, "", err
	}
	if *lastEventID != "" {
		req.Header.Set("Last-Event-ID", *lastEventID)
	}
	resp, err := httpx.Stream.Do(req)
	if err != nil {
		return false, "", err
	}
	defer resp.Body.Close()
	if err := checkStatus(resp); err != nil {
		return false, "", err
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "id: ") {
			*lastEventID = strings.TrimPrefix(line, "id: ")
			continue
		}
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev service.Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			continue
		}
		gotAny = true
		switch ev.Type {
		case "progress":
			if pr := ev.Progress; pr != nil {
				fmt.Fprintf(os.Stderr, "symsim: %8.1fs  %d done / %d pending / %d in flight  %d cycles  %d csm states\n",
					pr.Elapsed.Seconds(), pr.PathsDone, pr.PathsPending, pr.PathsInFlight, pr.SimulatedCycles, pr.CSMStates)
			}
		case "state":
			fmt.Fprintf(os.Stderr, "symsim: job %s %s\n", id, ev.State)
			if terminalState(ev.State) {
				return gotAny, ev.State, nil
			}
		}
	}
	return gotAny, "", sc.Err()
}

func terminalState(st service.State) bool {
	return st == service.StateDone || st == service.StateFailed || st == service.StateCanceled
}

// fetchJob reads one job's view (with idempotent-GET retry).
func fetchJob(server, id string) (service.JobView, error) {
	var view service.JobView
	resp, err := clientGet(server + "/jobs/" + id)
	if err != nil {
		return view, err
	}
	defer resp.Body.Close()
	if err := checkStatus(resp); err != nil {
		return view, err
	}
	err = json.NewDecoder(resp.Body).Decode(&view)
	return view, err
}

// jobGetCmd factors the subcommands of shape `symsim <cmd> [-server ...] <job-id>`.
func jobGetCmd(name string, args []string, run func(server, id string) error) int {
	fs := flag.NewFlagSet("symsim "+name, flag.ExitOnError)
	server := serverFlag(fs)
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintf(os.Stderr, "usage: symsim %s [-server URL] <job-id>\n", name)
		return 2
	}
	if err := run(*server, fs.Arg(0)); err != nil {
		fmt.Fprintln(os.Stderr, "symsim:", err)
		return 1
	}
	return 0
}

func getJSON(url string, sink func([]byte) error) error {
	resp, err := clientGet(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := checkStatus(resp); err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	return sink(data)
}

func prettyPrint(data []byte) error {
	var buf bytes.Buffer
	if err := json.Indent(&buf, data, "", "  "); err != nil {
		// Not JSON (or malformed): pass the payload through untouched.
		_, werr := os.Stdout.Write(data)
		return werr
	}
	buf.WriteByte('\n')
	_, err := buf.WriteTo(os.Stdout)
	return err
}

func printJobTable(data []byte) error {
	var views []service.JobView
	if err := json.Unmarshal(data, &views); err != nil {
		return err
	}
	if len(views) == 0 {
		fmt.Println("no jobs")
		return nil
	}
	fmt.Printf("%-26s %-9s %-10s %-12s %s\n", "ID", "STATE", "DESIGN", "BENCH", "FLAGS")
	for _, v := range views {
		var notes []string
		if v.Cached {
			notes = append(notes, "cached")
		}
		if v.Resumable {
			notes = append(notes, "resumable")
		}
		fmt.Printf("%-26s %-9s %-10s %-12s %s\n",
			v.ID, v.State, v.Spec.Design, v.Spec.Bench, strings.Join(notes, ","))
	}
	return nil
}

// checkStatus turns a non-2xx response into an error carrying the server's
// JSON error message when present.
func checkStatus(resp *http.Response) error {
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return nil
	}
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		return fmt.Errorf("%s: %s", resp.Status, e.Error)
	}
	return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(data)))
}
