package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"

	"fudj/internal/cluster"
	"fudj/internal/core"
	"fudj/internal/engine"
	"fudj/internal/sched"
)

// TestErrorTaxonomyRoundTrip is the wrap-fidelity audit for the whole
// structured error taxonomy: every error must keep its concrete type
// reachable by errors.As and its retryability classification stable
// (1) through fmt.Errorf %w wrap chains in process, and (2) through
// the wire envelope (encode → JSON → decode). The single intended
// divergence — drain sheds become retryable at the network boundary —
// is asserted explicitly.
func TestErrorTaxonomyRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		err  error
		// retryable is the in-process classification.
		retryable bool
		// wireRetryable is the classification after the wire round
		// trip. Equal to retryable for the whole taxonomy except drain.
		wireRetryable bool
		// wire, when set, is the envelope the client receives in place
		// of EncodeError's output: one no current server produces.
		wire *Envelope
		// check asserts the concrete type survived with its fields, on
		// both the wrapped in-process chain and the decoded remote err.
		check func(t *testing.T, err error)
	}{
		{
			name:          "admission queue full",
			err:           &sched.AdmissionError{Reason: sched.ReasonQueueFull, Priority: sched.PriorityHigh, Queued: 8, Running: 4},
			retryable:     true,
			wireRetryable: true,
			check: func(t *testing.T, err error) {
				var adm *sched.AdmissionError
				if !errors.As(err, &adm) {
					t.Fatal("AdmissionError lost")
				}
				if adm.Reason != sched.ReasonQueueFull || adm.Priority != sched.PriorityHigh || adm.Queued != 8 || adm.Running != 4 {
					t.Fatalf("fields lost: %+v", adm)
				}
			},
		},
		{
			name:          "admission pool exhausted",
			err:           &sched.AdmissionError{Reason: sched.ReasonPoolExhausted, WantBytes: 1 << 20, FreeBytes: 512},
			retryable:     true,
			wireRetryable: true,
			check: func(t *testing.T, err error) {
				var adm *sched.AdmissionError
				if !errors.As(err, &adm) {
					t.Fatal("AdmissionError lost")
				}
				if adm.WantBytes != 1<<20 || adm.FreeBytes != 512 {
					t.Fatalf("byte fields lost: %+v", adm)
				}
			},
		},
		{
			name: "admission draining",
			err:  &sched.AdmissionError{Reason: sched.ReasonDraining},
			// The deliberate divergence: non-retryable in process (this
			// scheduler never admits again), retryable over the wire
			// (the daemon restarts; back off and resubmit).
			retryable:     false,
			wireRetryable: true,
			check: func(t *testing.T, err error) {
				var adm *sched.AdmissionError
				if !errors.As(err, &adm) {
					t.Fatal("AdmissionError lost")
				}
				if adm.Reason != sched.ReasonDraining {
					t.Fatalf("reason lost: %+v", adm)
				}
			},
		},
		{
			name:          "timeout",
			err:           &engine.TimeoutError{Timeout: 3 * time.Second, Err: context.DeadlineExceeded},
			retryable:     false,
			wireRetryable: false,
			check: func(t *testing.T, err error) {
				var tmo *engine.TimeoutError
				if !errors.As(err, &tmo) {
					t.Fatal("TimeoutError lost")
				}
				if tmo.Timeout != 3*time.Second {
					t.Fatalf("timeout lost: %+v", tmo)
				}
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatal("DeadlineExceeded not in chain")
				}
			},
		},
		{
			// The retired barrier_loss code is outside the client's
			// taxonomy: an older server's envelope decodes to a
			// *RemoteError that keeps the server's retryable verdict.
			name:          "barrier loss",
			err:           &RemoteError{Code: "barrier_loss", Message: "node lost at shuffle barrier", Retry: true},
			retryable:     true,
			wireRetryable: true,
			wire:          &Envelope{Code: "barrier_loss", Message: "node lost at shuffle barrier", Retryable: true},
			check: func(t *testing.T, err error) {
				var rem *RemoteError
				if !errors.As(err, &rem) {
					t.Fatal("RemoteError lost")
				}
				if rem.Code != "barrier_loss" || !rem.Retry {
					t.Fatalf("fields lost: %+v", rem)
				}
			},
		},
		{
			name:          "resource",
			err:           &core.ResourceError{Join: "spatial", Phase: "combine", Partition: 3, Bytes: 4096, Budget: 1024},
			retryable:     false,
			wireRetryable: false,
			check: func(t *testing.T, err error) {
				var re *core.ResourceError
				if !errors.As(err, &re) {
					t.Fatal("ResourceError lost")
				}
				if re.Join != "spatial" || re.Phase != "combine" || re.Partition != 3 || re.Bytes != 4096 || re.Budget != 1024 {
					t.Fatalf("fields lost: %+v", re)
				}
			},
		},
		{
			name:          "udf panic",
			err:           &core.UDFError{Join: "textsim", Phase: "assign", Partition: 1, Record: 9, Panic: "boom"},
			retryable:     false,
			wireRetryable: false,
			check: func(t *testing.T, err error) {
				var ue *core.UDFError
				if !errors.As(err, &ue) {
					t.Fatal("UDFError lost")
				}
				if ue.Join != "textsim" || ue.Record != 9 || fmt.Sprint(ue.Panic) != "boom" {
					t.Fatalf("fields lost: %+v", ue)
				}
			},
		},
		{
			name:          "fault",
			err:           &cluster.FaultError{Kind: cluster.FaultCrash, Node: 2, Part: 5, Attempt: 1},
			retryable:     true,
			wireRetryable: true,
			check: func(t *testing.T, err error) {
				var fe *cluster.FaultError
				if !errors.As(err, &fe) {
					t.Fatal("FaultError lost")
				}
				if fe.Kind != cluster.FaultCrash || fe.Node != 2 || fe.Part != 5 {
					t.Fatalf("fields lost: %+v", fe)
				}
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name+"/in-process", func(t *testing.T) {
			// Two layers of %w, the way engine code actually wraps.
			wrapped := fmt.Errorf("query 7: %w", fmt.Errorf("step fudj: %w", tc.err))
			if got := cluster.IsRetryable(wrapped); got != tc.retryable {
				t.Fatalf("IsRetryable(wrapped) = %v, want %v", got, tc.retryable)
			}
			tc.check(t, wrapped)
		})
		t.Run(tc.name+"/wire", func(t *testing.T) {
			// Encode the same wrapped chain, push it through JSON the
			// way a frame payload travels, decode on the "client".
			wrapped := fmt.Errorf("query 7: %w", tc.err)
			env := EncodeError(wrapped, 250*time.Millisecond)
			if tc.wire != nil {
				env = *tc.wire
			}
			payload, err := json.Marshal(env)
			if err != nil {
				t.Fatal(err)
			}
			var decoded Envelope
			if err := json.Unmarshal(payload, &decoded); err != nil {
				t.Fatal(err)
			}
			remote := DecodeError(decoded)
			if got := cluster.IsRetryable(remote); got != tc.wireRetryable {
				t.Fatalf("IsRetryable(remote) = %v, want %v", got, tc.wireRetryable)
			}
			tc.check(t, remote)
		})
	}
}

// TestShedRetryAfterHint asserts the server hint rides the decoded
// error and is readable through RetryAfter.
func TestShedRetryAfterHint(t *testing.T) {
	env := EncodeError(&sched.AdmissionError{Reason: sched.ReasonDraining}, 300*time.Millisecond)
	if !env.Retryable || env.RetryAfterMs != 300 {
		t.Fatalf("shed envelope %+v", env)
	}
	err := DecodeError(env)
	d, ok := RetryAfter(err)
	if !ok || d != 300*time.Millisecond {
		t.Fatalf("RetryAfter = %v, %v", d, ok)
	}
	var shed *ShedError
	if !errors.As(err, &shed) {
		t.Fatal("decoded drain refusal must be a ShedError")
	}
}

// TestRemoteErrorFallback: errors outside the taxonomy keep the
// server's retryability verdict.
func TestRemoteErrorFallback(t *testing.T) {
	env := EncodeError(errors.New("no such dataset"), 0)
	if env.Code != CodeInternal || env.Retryable {
		t.Fatalf("fallback envelope %+v", env)
	}
	err := DecodeError(env)
	var rem *RemoteError
	if !errors.As(err, &rem) {
		t.Fatalf("decoded %T", err)
	}
	if cluster.IsRetryable(err) {
		t.Fatal("non-retryable verdict lost")
	}
}
