package flow

import "pstlbench/internal/obs"

// streamMetrics is one stream's pushed instruments, every series labeled
// {stream="<name>"}. The event and window counts are not here: they are
// pull-time funcs over the stream's locked fields, so /metrics and
// StreamStats read one count, not two.
type streamMetrics struct {
	latency   *obs.Histogram
	winEvents *obs.Histogram
}

// initMetrics registers the stream's pstld_flow_* families on r: counters
// and gauges that read live stream state at scrape time, plus the two
// histograms observed on the window path.
func (s *Stream) initMetrics(r *obs.Registry) {
	name := s.cfg.Name
	ctr := func(family, help string, f func() int64) {
		r.CounterFunc(family, help, func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(f())
		}, "stream", name)
	}
	ctr("pstld_flow_events_total",
		"Events accepted into stream buffers.", func() int64 { return s.events })
	ctr("pstld_flow_late_events_total",
		"Events discarded because every containing window had closed under the watermark.",
		func() int64 { return s.late })
	ctr("pstld_flow_dropped_events_total",
		"Buffered events evicted by the drop-oldest backpressure policy.",
		func() int64 { return s.droppedEvents })
	ctr("pstld_flow_paused_events_total",
		"Events refused at the buffer cap under the pause backpressure policy.",
		func() int64 { return s.pausedEvents })
	ctr("pstld_flow_windows_closed_total",
		"Windows closed by the watermark or a flush.", func() int64 { return s.windowsClosed })
	ctr("pstld_flow_windows_done_total",
		"Closed windows whose job completed.", func() int64 { return s.windowsDone })
	ctr("pstld_flow_windows_canceled_total",
		"Closed windows whose job was canceled or missed its deadline.",
		func() int64 { return s.windowsCanceled })
	ctr("pstld_flow_windows_dropped_total",
		"Closed windows dropped by pending-queue overflow or admission rejection.",
		func() int64 { return s.windowsDropped })
	s.m = streamMetrics{
		latency: r.Histogram("pstld_flow_window_latency_seconds",
			"Wall time from window close to job completion (done windows only).",
			obs.LatencyBuckets, "stream", name),
		winEvents: r.Histogram("pstld_flow_window_events",
			"Events per closed non-empty window.", obs.SizeBuckets, "stream", name),
	}
	r.GaugeFunc("pstld_flow_buffered_events",
		"Current buffered (event, window) assignments.",
		func() float64 { return float64(s.Buffered()) }, "stream", name)
	r.GaugeFunc("pstld_flow_watermark_lag_seconds",
		"Wall-clock now minus the stream watermark.",
		func() float64 { return s.WatermarkLag().Seconds() }, "stream", name)
}
