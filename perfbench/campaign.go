package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"roadrunner/internal/campaign"
)

// Campaign workload shape: the tiny environment, four strategies × 50
// seeds, two executors, and warmResubmits identical resubmissions per
// cold campaign.
const (
	campaignSeeds = 50
	executors     = 2
	warmResubmits = 5
	setupProbes   = 30
)

var campaignStrategies = []string{"fedavg", "opp", "gossip", "rsu"}

// campaignManifest builds the workload's manifest from the benchmark seed.
func campaignManifest(seed uint64) campaign.Manifest {
	m := campaign.Manifest{Name: fmt.Sprintf("perfbench-%d", seed), Env: campaign.EnvTiny}
	for _, k := range campaignStrategies {
		m.Strategies = append(m.Strategies, campaign.StrategySpec{Kind: k})
	}
	for i := 1; i <= campaignSeeds; i++ {
		m.Seeds = append(m.Seeds, seed*1000+uint64(i))
	}
	return m
}

// daemon is one running roadrunnerd process. Its output goes through a
// pipe into its log file, so the client can block on a start-up line
// instead of polling.
type daemon struct {
	cmd    *exec.Cmd
	log    *os.File
	done   chan error
	ready  chan struct{} // closed when the output has shown readyLine
	copied chan struct{} // closed when the output has been copied to the end
}

// startDaemon starts roadrunnerd with args, logging its output to logPath.
// ready closes on the first output line that contains readyLine.
func startDaemon(bin, logPath, readyLine string, args ...string) (*daemon, error) {
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		_ = lf.Close()
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = pw, pw
	// Should the benchmark die without stopping the daemon, the kernel
	// kills the daemon too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	err = cmd.Start()
	_ = pw.Close()
	if err != nil {
		_ = pr.Close()
		_ = lf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, log: lf, done: make(chan error, 1), ready: make(chan struct{}), copied: make(chan struct{})}
	go func() {
		defer close(d.copied)
		defer func() { _ = pr.Close() }()
		sc := bufio.NewScanner(pr)
		signalled := false
		for sc.Scan() {
			_, _ = lf.Write(append(sc.Bytes(), '\n'))
			if !signalled && bytes.Contains(sc.Bytes(), []byte(readyLine)) {
				close(d.ready)
				signalled = true
			}
		}
		_, _ = io.Copy(lf, pr) // a line too long for the scanner
	}()
	go func() { d.done <- cmd.Wait() }()
	return d, nil
}

// peakRSS is the daemon's peak resident set so far, in MB.
func (d *daemon) peakRSS() (float64, error) {
	return peakRSSMB(strconv.Itoa(d.cmd.Process.Pid))
}

// stop sends SIGTERM and waits for the process to exit, killing it if it
// has not drained within the grace period.
func (d *daemon) stop() error {
	defer func() {
		<-d.copied
		_ = d.log.Close()
	}()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.done:
		// A daemon that has not installed its signal handler yet dies of
		// the SIGTERM itself; that is the stop asked for, not a failure.
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			if ws, ok := exit.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
				return nil
			}
		}
		return err
	case <-time.After(20 * time.Second): //roadlint:allow wallclock benchmark process grace period
		_ = d.cmd.Process.Kill()
		<-d.done
		return fmt.Errorf("roadrunnerd pid %d did not stop on SIGTERM", d.cmd.Process.Pid)
	}
}

// freeAddr picks a loopback port that is free right now.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer func() { _ = l.Close() }()
	return l.Addr().String(), nil
}

// client is the benchmark's closed-loop HTTP client: one request at a
// time, each sent after the previous reply.
type client struct {
	base     string
	hc       *http.Client
	requests int
	failed   int
}

func (c *client) do(method, path string, body []byte) ([]byte, error) {
	c.requests++
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		c.failed++
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.failed++
		return nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		c.failed++
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		c.failed++
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	return data, nil
}

// sseEvent is the union of the daemon's progress events: campaign run
// transitions and snapshots, and the coordinator's cluster events.
type sseEvent struct {
	Type   string           `json:"type"`
	Ref    string           `json:"ref"`
	Status *campaign.Status `json:"status"`
}

// stamped is an event with its arrival time at the client.
type stamped struct {
	at time.Time
	ev sseEvent
}

// waitDone follows the campaign's SSE stream until the campaign is done
// and returns the final status and, when keep is set, every event
// timestamped on arrival.
func (c *client) waitDone(path string, keep bool) (*campaign.Status, []stamped, error) {
	c.requests++
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		c.failed++
		return nil, nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		c.failed++
		return nil, nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	var events []stamped
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		data, ok := bytes.CutPrefix(sc.Bytes(), []byte("data: "))
		if !ok {
			continue
		}
		at := time.Now() //roadlint:allow wallclock benchmark event arrival stamp
		var ev sseEvent
		if err := json.Unmarshal(data, &ev); err != nil {
			c.failed++
			return nil, nil, fmt.Errorf("decode event: %w", err)
		}
		if keep {
			events = append(events, stamped{at, ev})
		}
		if ev.Status != nil && ev.Status.Done {
			return ev.Status, events, nil
		}
	}
	c.failed++
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	return nil, nil, fmt.Errorf("event stream %s ended before the campaign finished", path)
}

// submission is one campaign submitted and served to the end.
type submission struct {
	id       string
	submitAt time.Time
	submit   time.Duration // POST round trip
	result   time.Duration // merged-result GET round trip
	makespan time.Duration // submit until the merged result is verified
	digest   string
	status   campaign.Status
	events   []stamped
}

// submitAndWait posts the manifest, follows progress until the campaign is
// done, fetches the merged result, and verifies it.
func (c *client) submitAndWait(prefix string, body []byte, keep bool) (*submission, error) {
	s := &submission{submitAt: time.Now()} //roadlint:allow wallclock benchmark makespan
	reply, err := c.do("POST", prefix+"/campaigns", body)
	s.submit = time.Since(s.submitAt) //roadlint:allow wallclock benchmark makespan
	if err != nil {
		return nil, err
	}
	var st campaign.Status
	if err := json.Unmarshal(reply, &st); err != nil {
		return nil, fmt.Errorf("decode submit reply: %w", err)
	}
	s.id = st.ID
	final := &st
	if !st.Done {
		if final, s.events, err = c.waitDone(prefix+"/campaigns/"+st.ID+"/events", keep); err != nil {
			return nil, err
		}
	}
	s.status = *final
	t := time.Now() //roadlint:allow wallclock benchmark makespan
	merged, err := c.do("GET", prefix+"/campaigns/"+st.ID+"/result", nil)
	s.result = time.Since(t) //roadlint:allow wallclock benchmark makespan
	if err != nil {
		return nil, err
	}
	if len(merged) == 0 {
		return nil, fmt.Errorf("campaign %s: empty merged result", st.ID)
	}
	sum := sha256.Sum256(merged)
	s.digest = hex.EncodeToString(sum[:])
	s.makespan = time.Since(s.submitAt) //roadlint:allow wallclock benchmark makespan
	return s, nil
}

// campCycle is one daemon lifetime: start on a fresh store, one cold
// campaign, warmResubmits warm ones, stop.
type campCycle struct {
	setup   time.Duration
	cold    *submission
	warm    []*submission
	rssMB   float64
	execS   float64 // fresh-execution host seconds of the cold campaign
	http    client
	store   storeCounts
	storeMB float64
}

// service is a running daemon set on one store: a single-node daemon, or
// a coordinator plus one worker process.
type service struct {
	daemons []*daemon // workers after their coordinator
	cl      *client
	prefix  string        // API prefix for campaigns
	setup   time.Duration // first process start until the service accepts campaigns
}

// startService starts the daemon(s) on a fresh store in dir and waits
// until the service accepts campaigns: the daemon answers, and in cluster
// mode the worker has joined.
func startService(c config, cluster bool, dir string, cl *client) (*service, error) {
	storeDir := filepath.Join(dir, "store")
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	cl.base = "http://" + addr
	// The timeout bounds a whole request, event stream included, so a
	// daemon that never finishes a campaign fails the run instead of
	// hanging it.
	cl.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}, Timeout: 2 * time.Minute}
	s := &service{cl: cl, prefix: "/v1"}
	start := time.Now() //roadlint:allow wallclock benchmark set-up timing
	args := []string{"-addr", addr, "-store", storeDir, "-workers", strconv.Itoa(executors)}
	if cluster {
		args = []string{"-cluster", "-addr", addr, "-store", storeDir}
	}
	d, err := startDaemon(c.daemon, filepath.Join(dir, "daemon.log"), "listening on", args...)
	if err != nil {
		return nil, err
	}
	s.daemons = append(s.daemons, d)
	if err := waitReady(cl, d, "/healthz", func([]byte) bool { return true }); err != nil {
		_ = s.stop()
		return nil, err
	}
	if cluster {
		s.prefix = "/v1/cluster"
		w, err := startDaemon(c.daemon, filepath.Join(dir, "worker.log"), " joined ",
			"-join", cl.base, "-node", "w1", "-capacity", strconv.Itoa(executors), "-store", storeDir)
		if err != nil {
			_ = s.stop()
			return nil, err
		}
		s.daemons = append(s.daemons, w)
		if err := waitReady(cl, w, "/v1/cluster/nodes", func(b []byte) bool {
			return bytes.Contains(b, []byte(`"alive": true`))
		}); err != nil {
			_ = s.stop()
			return nil, err
		}
	}
	s.setup = time.Since(start) //roadlint:allow wallclock benchmark set-up timing
	// Readiness polls are set-up, not the workload's requests.
	cl.requests, cl.failed = 0, 0
	return s, nil
}

// peakRSS sums the daemons' peak resident sets.
func (s *service) peakRSS() (float64, error) {
	var total float64
	for _, d := range s.daemons {
		rss, err := d.peakRSS()
		if err != nil {
			return 0, err
		}
		total += rss
	}
	return total, nil
}

// stop stops every daemon, workers before their coordinator, and returns
// the first error.
func (s *service) stop() error {
	var first error
	for i := len(s.daemons) - 1; i >= 0; i-- {
		if err := s.daemons[i].stop(); err != nil && first == nil {
			first = err
		}
	}
	s.daemons = nil
	s.cl.hc.CloseIdleConnections()
	return first
}

// probeSetup starts the service on a fresh store and stops it again,
// returning the set-up time.
func probeSetup(c config, cluster bool, dir string) (time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	defer func() { _ = os.RemoveAll(dir) }()
	s, err := startService(c, cluster, dir, &client{})
	if err != nil {
		return 0, err
	}
	return s.setup, s.stop()
}

// runCampaignCycle runs one cycle with the daemon(s) in dir.
func runCampaignCycle(c config, cluster bool, body []byte, dir string, traced bool) (*campCycle, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer func() { _ = os.RemoveAll(dir) }()
	cy := &campCycle{}
	svc, err := startService(c, cluster, dir, &cy.http)
	if err != nil {
		return nil, err
	}
	defer func() { _ = svc.stop() }()
	cy.setup = svc.setup
	cl := &cy.http

	if cy.cold, err = cl.submitAndWait(svc.prefix, body, traced); err != nil {
		return nil, fmt.Errorf("cold campaign: %w", err)
	}
	if !cluster && traced {
		if cy.execS, err = scrapeMetric(cl, "roadrunnerd_wall_seconds_total"); err != nil {
			return nil, err
		}
	}
	for i := 0; i < warmResubmits; i++ {
		s, err := cl.submitAndWait(svc.prefix, body, traced)
		if err != nil {
			return nil, fmt.Errorf("warm campaign: %w", err)
		}
		cy.warm = append(cy.warm, s)
	}
	if cy.rssMB, err = svc.peakRSS(); err != nil {
		return nil, err
	}
	if err := svc.stop(); err != nil {
		return nil, err
	}
	storeDir := filepath.Join(dir, "store")
	if traced {
		if cy.store, err = readStoreCounts(storeDir, cy.cold.id); err != nil {
			return nil, err
		}
		if cy.storeMB, err = dirMB(storeDir); err != nil {
			return nil, err
		}
	}
	return cy, nil
}

// waitReady waits until the daemon prints its start-up line, then asks
// path until ok accepts the reply. It fails if the daemon exits or takes
// longer than a minute. The line comes just before the daemon serves, so
// the requests after it retry at a fine grain instead of polling from the
// start.
func waitReady(cl *client, d *daemon, path string, ok func([]byte) bool) error {
	deadline := time.After(time.Minute) //roadlint:allow wallclock benchmark readiness deadline
	select {
	case <-d.ready:
	case err := <-d.done:
		d.done <- err
		return fmt.Errorf("roadrunnerd exited during start-up: %v (log %s)", err, d.log.Name())
	case <-deadline:
		return fmt.Errorf("roadrunnerd printed no start-up line within a minute (log %s)", d.log.Name())
	}
	for {
		if b, err := cl.do("GET", path, nil); err == nil && ok(b) {
			return nil
		}
		select {
		case err := <-d.done:
			d.done <- err
			return fmt.Errorf("roadrunnerd exited during start-up: %v (log %s)", err, d.log.Name())
		case <-deadline:
			return fmt.Errorf("roadrunnerd not ready on %s within a minute (log %s)", path, d.log.Name())
		case <-time.After(50 * time.Microsecond): //roadlint:allow wallclock benchmark readiness retry
		}
	}
}

// scrapeMetric reads one unlabelled value from the daemon's /metrics.
func scrapeMetric(cl *client, name string) (float64, error) {
	data, err := cl.do("GET", "/metrics", nil)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	return 0, fmt.Errorf("/metrics has no %s", name)
}

// storeCounts are the durable records a cold campaign left in the store.
type storeCounts struct {
	queueRecords   int
	queueRefs      int
	journalRecords int
}

// readStoreCounts reads the cluster queue log (absent on a single-node
// daemon) and the cold campaign's journal after the daemons stopped.
func readStoreCounts(storeDir, coldID string) (storeCounts, error) {
	var sc storeCounts
	store, err := campaign.OpenStore(storeDir)
	if err != nil {
		return sc, err
	}
	recs, err := campaign.ReadQueueLog(store.QueueLogPath())
	switch {
	case errors.Is(err, os.ErrNotExist):
	case err != nil:
		return sc, err
	}
	for _, r := range recs {
		refs := 0
		if r.Ref != "" {
			refs = 1
		}
		for _, b := range r.Batch {
			if b.Ref != "" {
				refs++
			}
		}
		if refs == 0 || !recordOf(r, coldID) {
			continue
		}
		sc.queueRecords++
		sc.queueRefs += refs
	}
	path := store.JournalPath(coldID)
	if _, _, err := campaign.ReadJournal(path); err != nil {
		return sc, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return sc, err
	}
	sc.journalRecords = bytes.Count(data, []byte("\n"))
	return sc, nil
}

// recordOf reports whether a queue record belongs to the campaign: refs
// are "<campaign id>/<run key>".
func recordOf(r campaign.QueueRecord, id string) bool {
	ref := r.Ref
	if ref == "" && len(r.Batch) > 0 {
		ref = r.Batch[0].Ref
	}
	return strings.HasPrefix(ref, id+"/")
}

func dirMB(dir string) (float64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return float64(total) / (1 << 20), err
}

// campaignWorkload runs campaign_local or campaign_cluster and reports its
// metrics.
func campaignWorkload(c config, o *outcome, cluster bool) error {
	g, err := loadGolden()
	if err != nil {
		return err
	}
	body, err := json.Marshal(campaignManifest(c.seed))
	if err != nil {
		return err
	}
	name := "campaign_local"
	if cluster {
		name = "campaign_cluster"
	}
	window := c.window()
	run := func(traced bool) ([]*campCycle, error) {
		var out []*campCycle
		start := time.Now() //roadlint:allow wallclock benchmark measuring window
		for len(out) == 0 || !windowFull(start, window, len(out)) {
			dir := filepath.Join(c.work, fmt.Sprintf("%s-%d-%d", name, os.Getpid(), len(out)))
			cy, err := runCampaignCycle(c, cluster, body, dir, traced)
			if err != nil {
				return nil, err
			}
			out = append(out, cy)
		}
		return out, nil
	}
	untraced, err := run(false)
	if err != nil {
		return err
	}
	var traced []*campCycle
	if c.trace {
		if traced, err = run(true); err != nil {
			return err
		}
	}

	// Correctness: every run of every campaign succeeds, warm
	// resubmissions execute nothing, and every merged result is the same
	// bytes — cold and warm, cycle to cycle, local and cluster (through
	// the work directory), and the recorded digest on the default seed.
	ref := untraced[0].cold.digest
	total := len(campaignStrategies) * campaignSeeds
	for _, cy := range append(append([]*campCycle{}, untraced...), traced...) {
		o.attempted += cy.http.requests
		o.failed += cy.http.failed
		for i, s := range append([]*submission{cy.cold}, cy.warm...) {
			o.attempted += s.status.Total
			if s.status.Total != total {
				o.fail(1, "campaign %s: %d runs, want %d", s.id, s.status.Total, total)
			}
			if s.status.Failed > 0 {
				o.fail(s.status.Failed, "campaign %s: %d runs failed", s.id, s.status.Failed)
			}
			if i > 0 && s.status.Completed > 0 {
				o.fail(s.status.Completed, "warm campaign %s executed %d runs, want 0", s.id, s.status.Completed)
			}
			o.checkDigest(name+"/"+s.id, s.digest, ref)
		}
	}
	if c.seed == defaultSeed {
		o.checkDigest(name+" vs recorded", ref, g.Campaign)
	}
	other, found, err := crossCheck(c.work, fmt.Sprintf("campaign-%d", c.seed), ref)
	if err != nil {
		return err
	}
	if found {
		o.checkDigest(name+" vs the other campaign workload", ref, other)
	}
	fmt.Printf("# digest %s seed=%d %s\n", name, c.seed, ref)

	if !c.trace {
		var setup, cold, warm, rss []float64
		// A cycle starts the service once; extra start-stop probes give
		// the set-up median enough samples.
		for i := 0; i < setupProbes; i++ {
			d, err := probeSetup(c, cluster, filepath.Join(c.work, fmt.Sprintf("%s-%d-probe%d", name, os.Getpid(), i)))
			if err != nil {
				return err
			}
			setup = append(setup, d.Seconds())
		}
		for _, cy := range untraced {
			setup = append(setup, cy.setup.Seconds())
			cold = append(cold, cy.cold.makespan.Seconds())
			rss = append(rss, cy.rssMB)
			for _, w := range cy.warm {
				warm = append(warm, w.makespan.Seconds())
			}
		}
		o.setMedian("setup_s", setup, "s")
		o.setMedian("run_s", cold, "s")
		o.setMedian("warm_s", warm, "s")
		o.setMedian("peak_rss_mb", rss, "MB")
		o.aliases = map[string]string{"campaign_s": "run_s", "warm_campaign_s": "warm_s"}
		return nil
	}
	reportCampaignLayers(o, untraced, traced, cluster)
	return nil
}

// reportCampaignLayers reports the per-layer metrics of the traced cycles.
func reportCampaignLayers(o *outcome, untraced, traced []*campCycle, cluster bool) {
	var submitCold, submitWarm, result, execS, share, coldUntraced, coldTraced []float64
	var queueWait, startGate, lease []float64
	var requests, failed, executed, cached, warmSubs int
	var counts storeCounts
	var storeMB float64
	for _, cy := range untraced {
		coldUntraced = append(coldUntraced, cy.cold.makespan.Seconds())
	}
	for _, cy := range traced {
		coldTraced = append(coldTraced, cy.cold.makespan.Seconds())
		submitCold = append(submitCold, cy.cold.submit.Seconds())
		for _, s := range append([]*submission{cy.cold}, cy.warm...) {
			result = append(result, s.result.Seconds())
		}
		for _, w := range cy.warm {
			submitWarm = append(submitWarm, w.submit.Seconds())
			cached += w.status.Cached
			executed += w.status.Completed
			warmSubs++
		}
		executed += cy.cold.status.Completed
		requests += cy.http.requests
		failed += cy.http.failed
		counts.queueRecords += cy.store.queueRecords
		counts.queueRefs += cy.store.queueRefs
		counts.journalRecords += cy.store.journalRecords
		storeMB += cy.storeMB

		e := cy.execS
		if cluster {
			qw, sg, ls := leaseTimings(cy.cold)
			queueWait = append(queueWait, qw...)
			startGate = append(startGate, sg...)
			lease = append(lease, ls...)
			e = busySeconds(cy.cold)
		}
		execS = append(execS, e)
		share = append(share, 1-e/(cy.cold.makespan.Seconds()*executors))
	}
	n := float64(len(traced))
	o.setMedian("http.submit_s", submitCold, "s")
	o.setMedian("http.submit_warm_s", submitWarm, "s")
	o.setMedian("http.result_s", result, "s")
	o.set("http.requests", float64(requests)/n, "count")
	o.set("http.failed", float64(failed)/n, "count")
	o.setMedian("campaign.execute_s", execS, "s")
	o.set("campaign.runs_executed", float64(executed)/n, "count")
	o.set("campaign.runs_cached", ratio(float64(cached), float64(warmSubs)), "count")
	o.setMedian("campaign.service_share", share, "ratio")
	o.set("campaign.queue_records", float64(counts.queueRecords)/n, "count")
	o.set("campaign.refs_per_queue_record", ratio(float64(counts.queueRefs), float64(counts.queueRecords)), "count")
	o.set("campaign.journal_records", float64(counts.journalRecords)/n, "count")
	o.set("campaign.store_mb", storeMB/n, "MB")
	setPercentiles(o, "cluster.queue_wait", queueWait)
	setPercentiles(o, "cluster.start_gate", startGate)
	setPercentiles(o, "cluster.lease", lease)
	o.set("trace.overhead_s", median(coldTraced)-median(coldUntraced), "s")
}

// setPercentiles reports the median and the highest percentile with at
// least ten samples beyond it, plus which percentile that was. With no
// samples it reports nothing, and conform fills in zeros.
func setPercentiles(o *outcome, name string, xs []float64) {
	if len(xs) == 0 {
		return
	}
	o.setMedian(name+"_p50_s", xs, "s")
	delete(o.samples, name+"_p50_s") // hundreds of samples: keep the line short
	if pct, v, ok := topPercentile(xs, 10); ok {
		o.set(name+"_ptop_s", v, "s")
		o.set(name+"_ptop_pct", pct, "pct")
	}
}

// busySeconds is the length of the union of the cold campaign's
// start→complete intervals: the time the worker held at least one started
// lease. The worker starts and completes each claimed batch together and
// executes its runs one after another, so summing per-ref intervals would
// count a batch's execution once per run in it.
func busySeconds(s *submission) float64 {
	type span struct{ from, to time.Time }
	var spans []span
	starts := map[string]time.Time{}
	for _, e := range s.events {
		switch e.ev.Type {
		case "start":
			starts[e.ev.Ref] = e.at
		case "complete":
			if t, ok := starts[e.ev.Ref]; ok {
				spans = append(spans, span{t, e.at})
			}
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].from.Before(spans[j].from) })
	var total time.Duration
	var end time.Time
	for _, sp := range spans {
		if sp.from.After(end) {
			end = sp.from
		}
		if sp.to.After(end) {
			total += sp.to.Sub(end)
			end = sp.to
		}
	}
	return total.Seconds()
}

// leaseTimings pairs each ref's claim, start and complete events, stamped
// on arrival at the client, into submit→claim, claim→start and
// start→complete durations. Refs whose claim arrived before the event
// stream opened are skipped.
func leaseTimings(s *submission) (queueWait, startGate, lease []float64) {
	type times struct{ claim, start, complete time.Time }
	byRef := map[string]*times{}
	var order []string
	for _, e := range s.events {
		if e.ev.Ref == "" {
			continue
		}
		t := byRef[e.ev.Ref]
		if t == nil {
			t = &times{}
			byRef[e.ev.Ref] = t
			order = append(order, e.ev.Ref)
		}
		switch e.ev.Type {
		case "claim":
			t.claim = e.at
		case "start":
			t.start = e.at
		case "complete":
			t.complete = e.at
		}
	}
	for _, ref := range order {
		t := byRef[ref]
		if t.claim.IsZero() || t.start.IsZero() || t.complete.IsZero() {
			continue
		}
		queueWait = append(queueWait, t.claim.Sub(s.submitAt).Seconds())
		startGate = append(startGate, t.start.Sub(t.claim).Seconds())
		lease = append(lease, t.complete.Sub(t.start).Seconds())
	}
	return queueWait, startGate, lease
}
