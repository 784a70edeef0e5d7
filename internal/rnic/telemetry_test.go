package rnic

import (
	"testing"

	"odpsim/internal/sim"
	"odpsim/internal/telemetry"
)

// TestTelemetryRegistryMirrorsFields runs one ODP READ exchange and
// checks the device registry exposes the transport, port and ODP
// counters with the values the legacy exported fields show.
func TestTelemetryRegistryMirrorsFields(t *testing.T) {
	h := newHarness(t, goBackN, 1, ConnectX4(), serverODP, defaultParams())
	h.eng.Go("client", func(p *sim.Proc) {
		h.qpC.PostSend(SendWR{ID: 1, Op: OpRead, LocalAddr: h.lbuf, RemoteAddr: h.rbuf, Len: 100})
		h.cqC.WaitN(p, 1)
	})
	h.eng.MustRun()

	s := h.server.Telemetry().Snapshot(h.eng.Now())
	if got := s.Total(telemetry.SimRNRNakSent); uint64(got) != h.server.RNRNakSent {
		t.Errorf("sim_rnr_nak_sent = %v, field = %d", got, h.server.RNRNakSent)
	}
	if h.server.RNRNakSent == 0 {
		t.Error("server-side ODP READ should RNR NAK at least once")
	}
	if got := s.Total(telemetry.RxReadRequests); uint64(got) != h.server.ReadsExecuted {
		t.Errorf("rx_read_requests = %v, field = %d", got, h.server.ReadsExecuted)
	}
	if got := s.Total(telemetry.OdpPageFaults); uint64(got) != h.server.ODP.Faults {
		t.Errorf("num_page_faults = %v, field = %d", got, h.server.ODP.Faults)
	}
	if got := s.Total(telemetry.PortXmitPackets); uint64(got) != h.server.Port.TxPackets {
		t.Errorf("port_xmit_packets = %v, field = %d", got, h.server.Port.TxPackets)
	}
	if h.server.Port.TxPackets == 0 || h.server.Port.RxPackets == 0 {
		t.Error("port counters did not move")
	}

	// Per-QP requester counters live on the client registry, labelled by
	// QPN.
	c := h.client.Telemetry().Snapshot(h.eng.Now())
	if got := c.Total(telemetry.RNRNakRetryErr); uint64(got) != h.qpC.Stats.RNRNakReceived {
		t.Errorf("rnr_nak_retry_err = %v, field = %d", got, h.qpC.Stats.RNRNakReceived)
	}
	if got := c.Total(telemetry.Completions); got == 0 {
		t.Error("completions counter did not move")
	}
}

// TestTelemetryPrefetchCounter checks AdviseMR prefetches land in
// num_prefetch and warm the pages.
func TestTelemetryPrefetchCounter(t *testing.T) {
	h := newHarness(t, goBackN, 1, ConnectX4(), serverODP, defaultParams())
	h.eng.Go("warm", func(p *sim.Proc) {
		h.server.AdviseMR(h.qpS.Num, h.rbuf, bufPages*4096)
		p.Sleep(50 * sim.Millisecond)
	})
	h.eng.MustRun()
	s := h.server.Telemetry().Snapshot(h.eng.Now())
	if got := s.Total(telemetry.OdpPrefetches); uint64(got) != h.server.ODP.Prefetches || got == 0 {
		t.Errorf("num_prefetch = %v, field = %d", got, h.server.ODP.Prefetches)
	}
}
