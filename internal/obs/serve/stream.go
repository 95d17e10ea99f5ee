package serve

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"arcs/internal/obs"
)

// handleSpans streams a run's span/event trace as NDJSON (default) or
// SSE (?format=sse, or Accept: text/event-stream), live while the run is
// in flight. Connecting to a finished run replays its events from the
// flight recorder instead, so late triage still gets a trace.
//
// Live streams are lossy by design: a consumer that cannot keep up with
// the emission rate loses events (never stalling the mining pipeline)
// and the final stream.end record reports how many were dropped, so a
// consumer can always tell whether its trace is complete.
func (s *Server) handleSpans(w http.ResponseWriter, r *http.Request) {
	run := s.lookup(r.PathValue("id"))
	if run == nil {
		http.Error(w, "unknown run", http.StatusNotFound)
		return
	}
	sse := r.URL.Query().Get("format") == "sse" ||
		strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	flusher, canFlush := w.(http.Flusher)

	sub := run.fanout.Subscribe(s.subBuf)
	if sub == nil {
		// The run finished and its fan-out closed: replay the flight
		// record so the client still gets the retained trace.
		s.replaySpans(w, run.ID, sse)
		return
	}
	defer run.fanout.Unsubscribe(sub)
	if s.subscribed != nil {
		s.subscribed(run)
	}

	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	if canFlush {
		flusher.Flush()
	}

	write := func(ev obs.Event) bool {
		if s.streamWriteDelay > 0 {
			time.Sleep(s.streamWriteDelay)
		}
		line, err := obs.EncodeEvent(ev, run.ID)
		if err != nil {
			return false
		}
		if sse {
			if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, line); err != nil {
				return false
			}
		} else {
			if _, err := fmt.Fprintf(w, "%s\n", line); err != nil {
				return false
			}
		}
		if canFlush {
			flusher.Flush()
		}
		return true
	}

	for {
		select {
		case <-r.Context().Done():
			// Client went away mid-run; unsubscribe (deferred) so the
			// fan-out stops queueing for us.
			return
		case ev, ok := <-sub.Events():
			if !ok {
				// Run complete: emit the end-of-stream record carrying
				// the drop count for this subscriber.
				write(streamEnd(run, sub.Dropped()))
				return
			}
			if !write(ev) {
				return
			}
		}
	}
}

// streamEnd builds the trailing stream.end record.
func streamEnd(run *Run, dropped int64) obs.Event {
	return obs.Event{
		Type:  obs.EventInstant,
		Name:  "stream.end",
		Start: time.Now(),
		Attrs: []obs.Attr{
			obs.Str("state", run.State()),
			obs.Str("dropped", strconv.FormatInt(dropped, 10)),
		},
	}
}

// replaySpans writes a finished run's retained flight-record events.
func (s *Server) replaySpans(w http.ResponseWriter, runID string, sse bool) {
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		for _, fe := range s.flight.Snapshot(runID) {
			line, err := obs.EncodeEvent(fe.Event, fe.Run)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", fe.Event.Type, line); err != nil {
				return
			}
		}
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	_ = s.flight.WriteJSONL(w, runID)
}
