// Package lpstats is the atomicmix fixture: per-process counters read
// concurrently with the run, with seeded mixed-access bugs.
package lpstats

import "sync/atomic"

// counters uses the old pointer-based sync/atomic API.
type counters struct {
	events int64
	drops  int64
}

func (c *counters) bump() {
	atomic.AddInt64(&c.events, 1)
}

func (c *counters) snapshot() int64 {
	return c.events // want `plain access of events`
}

func (c *counters) reset() {
	c.events = 0 // want `plain access of events`
	atomic.StoreInt64(&c.drops, 0)
}

func (c *counters) drained() bool {
	return atomic.LoadInt64(&c.drops) == 0
}

func (c *counters) debugEvents() int64 {
	//tofuvet:allow atomicmix read-only debug dump; a torn read is acceptable here
	return c.events
}

// prof uses the typed atomic API.
type prof struct {
	sends atomic.Int64
}

func (p *prof) send() {
	p.sends.Add(1)
}

func (p *prof) leak() atomic.Int64 {
	return p.sends // want `value copied out of its cell`
}

func (p *prof) cell() *atomic.Int64 {
	return &p.sends
}

func (p *prof) copyLocal() int64 {
	v := p.sends // want `value copied out of its cell`
	return v.Load()
}
