package main

import (
	"fmt"
	"time"
)

// publishSample times one publish: commit the live net to the catalog,
// then POST /reload until its 200.
type publishSample struct {
	start  time.Time
	save   time.Duration
	reload time.Duration
}

// publishTimes is a publishSample as a result record keeps it, with the
// reference scale of its moment (ref.go).
type publishTimes struct {
	SaveMS   float64 `json:"save_ms"`
	ReloadMS float64 `json:"reload_ms"`
	Scale    float64 `json:"scale"`
}

func (p publishSample) times(scale float64) publishTimes {
	return publishTimes{ms(p.save), ms(p.reload), scale}
}

// publish commits the live net as a new catalog generation of the given
// shard count and has the server reload it. Alternating 3 and 4 shards
// changes the partition shape every cycle, so each reload takes the full
// load path while the answers stay byte-identical.
func (e *env) publish(shards int) (publishSample, error) {
	e.quiet.Lock()
	defer e.quiet.Unlock()
	s := publishSample{start: time.Now()}
	if _, _, err := e.built.SaveShardsRetain(e.dir, shards, retainGen); err != nil {
		return s, fmt.Errorf("publish: save %d shards: %w", shards, err)
	}
	s.save = time.Since(s.start)
	status, err := e.adminPost("/reload")
	s.reload = time.Since(s.start) - s.save
	if err != nil || status != 200 {
		return s, fmt.Errorf("publish: POST /reload: status %d, %v", status, err)
	}
	return s, nil
}

// publishLoop publishes alternately 3 and 4 shards, pausing between
// cycles, until stop closes. It returns the samples and the first error,
// after which it stops.
func (e *env) publishLoop(stop <-chan struct{}, pause time.Duration) ([]publishSample, error) {
	var out []publishSample
	for cycle := 0; ; cycle++ {
		s, err := e.publish(netShards - 1 + cycle%2)
		if err != nil {
			return out, err
		}
		out = append(out, s)
		select {
		case <-stop:
			return out, nil
		case <-time.After(pause):
		}
	}
}

// churner is a publishLoop running in the background.
type churner struct {
	stop    chan struct{}
	done    chan struct{}
	samples []publishSample
	err     error
}

func (e *env) startChurn(pause time.Duration) *churner {
	c := &churner{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		c.samples, c.err = e.publishLoop(c.stop, pause)
	}()
	return c
}

// halt stops the loop after its current cycle and returns its samples.
func (c *churner) halt() ([]publishSample, error) {
	close(c.stop)
	<-c.done
	return c.samples, c.err
}

// idlePublishes times count publishes on a server no client is loading,
// each scaled by a reference measured for ref right before it.
func (e *env) idlePublishes(count int, ref time.Duration) ([]publishTimes, error) {
	var out []publishTimes
	for cycle := 0; cycle < count; cycle++ {
		rate, err := e.refRate(ref)
		if err != nil {
			return out, err
		}
		s, err := e.publish(netShards - 1 + cycle%2)
		if err != nil {
			return out, err
		}
		out = append(out, s.times(scaleFor(rate)))
	}
	return out, nil
}
