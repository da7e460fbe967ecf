package serve

// Serving-tier observability: the Server's bridge into internal/obs.
//
// obs is the server's only latency and count instrument, so /stats and
// /metrics read the same numbers. Three strands:
//   - Metrics (Config.Metrics, or a private registry when nil):
//     queue/running/load gauges, admission counters, per-tenant latency
//     histograms, and windowed-latency families rendered by /metrics. The
//     cumulative latency histograms also back the /stats Mean/P50/P99.
//     Hot-path updates are atomic histogram observations; everything
//     derivable from existing locked state is exported as pull-time funcs
//     so the job path pays nothing.
//   - Windows: per-tenant rolling-window latency histograms backing the
//     windowed quantiles in /stats and the SLO burn-rate gauges.
//   - Spans (Config.Spans, optional): terminal job lifecycle spans
//     retained in a bounded ring for /spans and the Chrome-trace export.
//
// Lock order: Server.mu > obsMu > (registry's and windows' own locks).
// Registry registration never runs under Server.mu — tenant instruments
// are created in ensureTenantObs on the submit path before the server
// lock is taken — and obs.Registry evaluates pull-time closures without
// its own lock held, so the GaugeFunc closures below may take Server.mu
// freely.

import "pstlbench/internal/obs"

// tenantObs is the per-tenant observability state: cumulative histograms
// plus the rolling latency windows.
type tenantObs struct {
	lat, wait, exec *obs.Histogram
	windows         *obs.Windows
	slo             obs.SLO
}

// initObs wires the observability strands at construction time.
func (s *Server) initObs(cfg Config) {
	m := cfg.Metrics
	if m == nil {
		m = obs.NewRegistry()
	}
	s.metrics = m
	s.mlabels = cfg.MetricsLabels
	s.spans = cfg.Spans
	s.tenantObsM = make(map[string]*tenantObs)
	s.sloObjective = cfg.SLOObjective
	s.sloTarget = cfg.SLOTarget
	if s.sloTarget <= 0 || s.sloTarget >= 1 {
		s.sloTarget = 0.99
	}
	s.winCfg = obs.WindowConfig{
		Width: cfg.WindowWidth,
		Count: cfg.WindowCount,
		Now:   cfg.windowNow,
	}

	l := s.mlabels
	m.GaugeFunc("pstld_queue_depth", "Jobs waiting in the admission queue.",
		func() float64 { return float64(s.Queued()) }, l...)
	m.GaugeFunc("pstld_queue_cap", "Admission queue capacity.",
		func() float64 { return float64(s.q.cap) }, l...)
	m.GaugeFunc("pstld_running", "Jobs occupying concurrency slots.",
		func() float64 { s.mu.Lock(); defer s.mu.Unlock(); return float64(s.running) }, l...)
	m.GaugeFunc("pstld_load", "Admission pressure in [0,~1] (see Server.Load).",
		s.Load, l...)
	m.GaugeFunc("pstld_admission_ema", "EMA of queue occupancy sampled at admission.",
		func() float64 { s.mu.Lock(); defer s.mu.Unlock(); return s.emaAdm }, l...)
	m.GaugeFunc("pstld_wfq_virtual_lag",
		"Largest tenant-lane lead over the WFQ virtual clock (virtual service units).",
		func() float64 { s.mu.Lock(); defer s.mu.Unlock(); return s.q.VirtualLag() }, l...)
	ctr := func(name, help string, f func() int64) {
		m.CounterFunc(name, help, func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(f())
		}, l...)
	}
	ctr("pstld_jobs_accepted_total", "Jobs admitted past the queue bound.", func() int64 { return s.accepted })
	ctr("pstld_jobs_rejected_total", "Submissions rejected by admission control.", func() int64 { return s.rejected })
	ctr("pstld_jobs_completed_total", "Jobs finished with a result.", func() int64 { return s.completed })
	ctr("pstld_jobs_canceled_total", "Jobs canceled (client, deadline, shutdown).", func() int64 { return s.canceled })
	ctr("pstld_jobs_expired_total", "Jobs canceled by their deadline.", func() int64 { return s.expired })
	ctr("pstld_jobs_withdrawn_total", "Queued jobs withdrawn for migration.", func() int64 { return s.withdrawn })
}

// ensureTenantObs creates the tenant's windows and metric instruments.
// Called on the submit path BEFORE the server lock so registration never
// nests inside Server.mu; one map hit after the first call. The entry is
// published only once fully built, so readers never see a half-made one.
func (s *Server) ensureTenantObs(tenant string) *tenantObs {
	s.obsMu.Lock()
	defer s.obsMu.Unlock()
	if to, ok := s.tenantObsM[tenant]; ok {
		return to
	}
	to := &tenantObs{
		windows: obs.NewWindows(s.winCfg),
		slo:     obs.SLO{Objective: s.sloObjective.Seconds(), Target: s.sloTarget},
	}
	m := s.metrics
	l := append(append([]string(nil), s.mlabels...), "tenant", tenant)
	to.lat = m.Histogram("pstld_job_latency_seconds",
		"End-to-end latency of completed jobs (cumulative).", obs.LatencyBuckets, l...)
	to.wait = m.Histogram("pstld_queue_wait_seconds",
		"Admission-to-start queue wait of completed jobs.", obs.LatencyBuckets, l...)
	to.exec = m.Histogram("pstld_execute_seconds",
		"Start-to-finish execution time of completed jobs.", obs.LatencyBuckets, l...)
	w := to.windows
	m.HistogramFunc("pstld_window_latency_seconds",
		"End-to-end latency over the rolling window (merged at scrape).",
		w.Snapshot, l...)
	if to.slo.Objective > 0 {
		slo := to.slo
		m.GaugeFunc("pstld_slo_burn_rate",
			"Error-budget burn rate over the rolling window (1 = on budget).",
			func() float64 { return slo.BurnRate(w.Snapshot()) }, l...)
	}
	s.tenantObsM[tenant] = to
	return to
}

// tenantObsOf returns the tenant's obs state without creating it — the
// finish path (under Server.mu) reads what the submit path ensured.
func (s *Server) tenantObsOf(tenant string) *tenantObs {
	s.obsMu.Lock()
	to := s.tenantObsM[tenant]
	s.obsMu.Unlock()
	return to
}

// observeDone records one completed job's latency split into the tenant's
// cumulative histograms and rolling windows. Called with Server.mu held;
// every update is an atomic or short-mutex observation, no allocation.
func (s *Server) observeDone(tenant string, total, wait, exec float64) {
	to := s.tenantObsOf(tenant)
	if to == nil {
		return
	}
	to.lat.Observe(total)
	to.wait.Observe(wait)
	to.exec.Observe(exec)
	to.windows.Observe(total)
}

// markTerminal stamps the span's terminal phase from the job's final state
// and retains it in the span log.
func (s *Server) markTerminal(j *Job, atNS int64) {
	sp := j.spec.Span
	if sp == nil {
		return
	}
	switch {
	case j.state == StateDone:
		sp.MarkAt(obs.PhaseCompleted, atNS)
	case j.reason == "deadline":
		sp.MarkAt(obs.PhaseFailed, atNS)
	default:
		sp.MarkAt(obs.PhaseCanceled, atNS)
	}
	s.spans.Add(sp)
}

// SpanLog returns the server's terminal-span ring (nil when disabled).
func (s *Server) SpanLog() *obs.SpanLog { return s.spans }
