// Package testbuf builds public pktbuf.Buffers from core.Configs for
// tests that pin the public path against an exact engine
// configuration. It lives apart from internal/facade because it
// imports pktbuf, which imports facade.
package testbuf

import (
	"testing"

	"repro/internal/core"
	"repro/internal/facade"
	"repro/pktbuf"
)

// rates maps the block size B to the line rate that produces it.
var rates = map[int]pktbuf.LineRate{8: pktbuf.OC768, 32: pktbuf.OC3072}

// New builds the pktbuf.Buffer dimensioned exactly as cfg (B = 32 is
// the OC-3072 line rate, B = 8 is OC-768). It fails tb if no line rate
// has cfg.B or if the public mapping does not reproduce cfg.
func New(tb testing.TB, cfg core.Config) *pktbuf.Buffer {
	tb.Helper()
	rate, ok := rates[cfg.B]
	if !ok {
		tb.Fatalf("no line rate has B = %d", cfg.B)
	}
	pc := pktbuf.Config{
		Queues:             cfg.Q,
		LineRate:           rate,
		Granularity:        cfg.Bsmall,
		Banks:              cfg.Banks,
		BankCapacityBlocks: cfg.BankCapacityBlocks,
		Renaming:           cfg.Renaming,
		Organization:       pktbuf.Organization(cfg.Org),
		MMA:                pktbuf.MMA(cfg.MMA),
		Lookahead:          cfg.Lookahead,
		LatencySlots:       cfg.LatencySlots,
	}
	if got, err := facade.CoreConfig(pc); err != nil || got != cfg {
		tb.Fatalf("public config %+v maps to %+v (%v), want %+v", pc, got, err, cfg)
	}
	buf, err := pktbuf.New(pc)
	if err != nil {
		tb.Fatal(err)
	}
	return buf
}
