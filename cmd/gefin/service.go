package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"mbusim/internal/core"
	"mbusim/internal/dispatch"
	"mbusim/internal/telemetry"
	"mbusim/internal/workloads"
)

// runService is `gefin -serve ADDR`, the campaign service. With
// -service-dir (dir set, grid nil) it is the durable multi-campaign
// service: campaigns arrive over POST /campaigns, one worker fleet is
// shared round-robin across everything running, and every accepted
// submission and state transition is journaled before it is acknowledged —
// SIGKILL the process, restart it on the same directory, and queued,
// running and finished campaigns come back exactly, with results files
// byte-identical to an uninterrupted run. It serves until ctx ends.
//
// Without -service-dir it is a one-shot run: the service keeps its state in
// a temporary directory, removed on exit, and grid is submitted in-process
// as its one campaign, with onCell observing each completed cell. It
// returns once that campaign is over and the fleet has been sent home:
// nil, the campaign's failure, or ctx.Err().
func runService(ctx context.Context, stderr io.Writer, addr, dir string,
	opts dispatch.ServiceOptions, start time.Time, grid []core.Spec, onCell func(int, *core.Result)) error {
	if grid != nil {
		tmp, err := os.MkdirTemp("", "gefin-serve-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	svc, err := dispatch.NewService(dir, opts)
	if err != nil {
		return err
	}
	defer svc.Close()
	if grid != nil {
		// Submitted before the port opens, so the first lease finds work.
		if _, _, err := svc.Submit(&dispatch.SubmitCampaignRequest{Specs: grid}, onCell); err != nil {
			return err
		}
	}
	// Serve checkpoint artifacts for every registered workload: the service
	// cannot know which workloads future submissions will name, and the
	// artifact table is lazy — nothing derives until a worker asks.
	arts, err := dispatch.NewArtifactServer(allWorkloadSpecs(), opts.Tel)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	mux := svc.Mux()
	mux.Handle(dispatch.PathArtifact, arts)
	// The dispatch port doubles as the telemetry endpoint: /metrics shows
	// the fleet gauges (and every federated worker series) next to the
	// campaign counters, /healthz answers probes.
	health := func() telemetry.Health {
		return telemetry.Health{Role: "service",
			UptimeSeconds: time.Since(start).Seconds(), Campaign: svc.Snapshot()}
	}
	mux.Handle("/", telemetry.Handler(opts.Tel.Registry, health))
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	defer func() {
		// Let replies already under way reach their workers before the port
		// closes: the final submit's reply is what sends its worker home.
		sctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		if srv.Shutdown(sctx) != nil {
			srv.Close()
		}
	}()
	if grid == nil {
		fmt.Fprintf(stderr, "dispatch: campaign service on http://%s (state %s, %d active slots, queue depth %d)\n",
			ln.Addr(), dir, opts.MaxActive, opts.QueueDepth)
		return svc.Run(ctx)
	}
	fmt.Fprintf(stderr, "dispatch: campaign service on http://%s running one campaign of %d cells (lease TTL %v, %d retries/cell)\n",
		ln.Addr(), len(grid), opts.LeaseTTL, opts.MaxRetries)
	sweep, stop := context.WithCancel(ctx)
	defer stop()
	go svc.Run(sweep)
	return svc.Drain(ctx)
}

// allWorkloadSpecs synthesizes one spec per registered workload — the
// artifact server only reads Workload from them.
func allWorkloadSpecs() []core.Spec {
	names := workloads.Names()
	specs := make([]core.Spec, 0, len(names))
	for _, w := range names {
		specs = append(specs, core.Spec{Workload: w})
	}
	return specs
}

// serviceURL normalizes a host:port to a base URL.
func serviceURL(addr string) string {
	if !strings.Contains(addr, "://") {
		return "http://" + addr
	}
	return addr
}

// clientExit maps a campaign-API client error to an exit code: a typed
// rejection (4xx) is misconfiguration (2), anything else — the service
// unreachable past the client's patience — is a runtime failure (1).
func clientExit(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, err)
	var term *dispatch.TerminalError
	if errors.As(err, &term) {
		return 2
	}
	return 1
}

// runSubmit is `gefin -submit ADDR <grid flags>`: build the grid exactly
// like a local run would and hand it to the campaign service. With
// -campaign-out it then polls until the campaign finishes and downloads
// the results file; the poll loop rides the client's retry policy, so a
// service restart mid-campaign is invisible here beyond latency.
func runSubmit(ctx context.Context, stdout, stderr io.Writer, addr string,
	specs []core.Spec, tenant, name string, retries int, outPath string, quiet bool) int {
	cl := &dispatch.Client{URL: serviceURL(addr)}
	info, err := cl.SubmitCampaign(ctx, &dispatch.SubmitCampaignRequest{
		Tenant: tenant, Name: name, Retries: retries, Specs: specs,
	})
	if err != nil {
		return clientExit(stderr, err)
	}
	fmt.Fprintf(stdout, "campaign %s: %s, %d cells, tenant %s\n",
		info.ID, info.State, info.Cells, info.Tenant)
	if outPath == "" {
		return 0
	}

	lastDone := -1
	for {
		cur, err := cl.Campaign(ctx, info.ID)
		if err != nil {
			if ctx.Err() != nil {
				fmt.Fprintf(stderr, "interrupted waiting on campaign %s (it keeps running server-side)\n", info.ID)
				return 130
			}
			return clientExit(stderr, err)
		}
		if !quiet && cur.Done != lastDone {
			lastDone = cur.Done
			fmt.Fprintf(stdout, "campaign %s: %s, %d/%d cells done\n",
				cur.ID, cur.State, cur.Done, cur.Cells)
		}
		switch cur.State {
		case dispatch.StateDone:
			data, err := cl.Results(ctx, cur.ID)
			if err != nil {
				return clientExit(stderr, err)
			}
			if err := os.WriteFile(outPath, data, 0o644); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			fmt.Fprintf(stderr, "wrote %s\n", outPath)
			return 0
		case dispatch.StateFailed:
			fmt.Fprintf(stderr, "campaign %s failed: %s\n", cur.ID, cur.Detail)
			return 1
		case dispatch.StateCancelled:
			fmt.Fprintf(stderr, "campaign %s was cancelled\n", cur.ID)
			return 1
		}
		select {
		case <-ctx.Done():
			fmt.Fprintf(stderr, "interrupted waiting on campaign %s (it keeps running server-side)\n", info.ID)
			return 130
		case <-time.After(time.Second):
		}
	}
}

// campaignLine renders one campaign's status.
func campaignLine(c dispatch.CampaignInfo) string {
	line := fmt.Sprintf("%s  %-9s  %d/%d cells", c.ID, c.State, c.Done, c.Cells)
	if c.Leased > 0 {
		line += fmt.Sprintf(", %d leased", c.Leased)
	}
	if c.Retries > 0 {
		line += fmt.Sprintf(", %d retries", c.Retries)
	}
	line += "  tenant=" + c.Tenant
	if c.Name != "" {
		line += "  name=" + c.Name
	}
	if c.Detail != "" {
		line += "  (" + c.Detail + ")"
	}
	return line
}

// runCampaigns is `gefin -campaigns ADDR [-campaign ID [-do ACTION]]`:
// list every campaign, show one, or transition one (pause/resume/cancel).
func runCampaigns(ctx context.Context, stdout, stderr io.Writer, addr, id, action string) int {
	cl := &dispatch.Client{URL: serviceURL(addr)}
	switch {
	case id == "":
		infos, err := cl.Campaigns(ctx)
		if err != nil {
			return clientExit(stderr, err)
		}
		if len(infos) == 0 {
			fmt.Fprintln(stdout, "no campaigns")
			return 0
		}
		for _, c := range infos {
			fmt.Fprintln(stdout, campaignLine(c))
		}
		return 0
	case action != "":
		info, err := cl.Transition(ctx, id, action)
		if err != nil {
			return clientExit(stderr, err)
		}
		fmt.Fprintln(stdout, campaignLine(*info))
		return 0
	default:
		info, err := cl.Campaign(ctx, id)
		if err != nil {
			return clientExit(stderr, err)
		}
		fmt.Fprintln(stdout, campaignLine(*info))
		return 0
	}
}
