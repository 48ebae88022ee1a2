// Package facade bridges the public pktbuf façade to the packages
// that need what is behind it: it lets pktbuf/router translate the
// public buffer configuration and statistics without duplicating the
// façade's mapping logic, and it lets the §5 validation and tests
// unwrap a *pktbuf.Buffer to the *core.Buffer behind it. The hooks
// are installed by package pktbuf at init time; arguments and
// results are typed any where pktbuf types are involved, because
// pktbuf cannot be imported from here without a cycle.
package facade

import "repro/internal/core"

// CoreOf returns the core buffer behind a *pktbuf.Buffer. It is set
// by package pktbuf's init and is therefore non-nil in any program
// that links the façade.
var CoreOf func(buffer any) *core.Buffer

// CoreConfig translates a pktbuf.Config (passed as any) into the
// core.Config it dimensions, applying the same defaulting and
// validation as pktbuf.New. Set by package pktbuf's init.
var CoreConfig func(config any) (core.Config, error)

// PublicStats translates a core.Stats into the pktbuf.Stats (returned
// as any) the façade reports for it. Set by package pktbuf's init.
var PublicStats func(s core.Stats) any
