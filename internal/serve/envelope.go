// Error envelopes: the serialized form of the engine's structured
// error taxonomy. A query failure crosses the socket as an Envelope
// (one JSON object inside a FrameError frame) and is decoded back into
// the *same concrete error types* the in-process engine returns —
// *sched.AdmissionError, *engine.TimeoutError, *core.ResourceError,
// *core.UDFError, *cluster.FaultError — so errors.As and fudj.IsRetryable classify a
// remote failure exactly as they would a local one.
//
// The single deliberate divergence is drain shedding: in process,
// AdmissionError{ReasonDraining} is non-retryable ("this scheduler
// will never admit again"), but at the network boundary the same
// refusal IS worth retrying — the daemon restarts, or a load balancer
// fails the client over — so the server marks drain sheds retryable
// and supplies a retry-after hint. The decoded error is a *ShedError
// (retryable) wrapping the original *sched.AdmissionError, so
// errors.As still surfaces the reason while fudj.IsRetryable follows
// the network-level classification.
package serve

import (
	"context"
	"errors"
	"fmt"
	"time"

	"fudj/internal/cluster"
	"fudj/internal/core"
	"fudj/internal/engine"
	"fudj/internal/sched"
)

// Envelope error codes.
const (
	CodeAdmission = "admission"
	CodeTimeout   = "timeout"
	CodeResource  = "resource"
	CodeUDF       = "udf"
	CodeFault     = "fault"
	CodeParse     = "parse"
	CodeProto     = "proto"
	CodeInstance  = "instance"
	CodeInternal  = "internal"
)

// Envelope is the wire form of one structured error. Exactly one of
// the detail fields is set for taxonomy errors; generic errors carry
// only code/message/retryable.
type Envelope struct {
	Code         string `json:"code"`
	Message      string `json:"message"`
	Retryable    bool   `json:"retryable"`
	RetryAfterMs int64  `json:"retry_after_ms,omitempty"`

	Admission *AdmissionDetail `json:"admission,omitempty"`
	Timeout   *TimeoutDetail   `json:"timeout,omitempty"`
	Resource  *ResourceDetail  `json:"resource,omitempty"`
	UDF       *UDFDetail       `json:"udf,omitempty"`
	Fault     *FaultDetail     `json:"fault,omitempty"`
	Instance  *InstanceDetail  `json:"instance,omitempty"`
}

// InstanceDetail mirrors InstanceMismatchError.
type InstanceDetail struct {
	Want string `json:"want"`
	Got  string `json:"got"`
}

// AdmissionDetail mirrors sched.AdmissionError.
type AdmissionDetail struct {
	Reason    int   `json:"reason"`
	Priority  int   `json:"priority"`
	Queued    int   `json:"queued"`
	Running   int   `json:"running"`
	WantBytes int64 `json:"want_bytes,omitempty"`
	FreeBytes int64 `json:"free_bytes,omitempty"`
	Canceled  bool  `json:"canceled,omitempty"` // Err was a context error
}

// TimeoutDetail mirrors engine.TimeoutError.
type TimeoutDetail struct {
	TimeoutNs int64 `json:"timeout_ns"`
}

// ResourceDetail mirrors core.ResourceError.
type ResourceDetail struct {
	Join      string `json:"join,omitempty"`
	Phase     string `json:"phase"`
	Partition int    `json:"partition"`
	Bytes     int64  `json:"bytes"`
	Budget    int64  `json:"budget"`
}

// UDFDetail mirrors core.UDFError. The panic value is stringified; the
// stack stays server-side (it names server goroutines, not client
// state) except for its first line.
type UDFDetail struct {
	Join      string `json:"join"`
	Phase     string `json:"phase"`
	Partition int    `json:"partition"`
	Record    int    `json:"record"`
	Panic     string `json:"panic"`
}

// FaultDetail mirrors cluster.FaultError.
type FaultDetail struct {
	Kind    int `json:"kind"`
	Node    int `json:"node"`
	Part    int `json:"part"`
	Attempt int `json:"attempt"`
}

// ShedError is a server refusal decoded on the client: retryable at
// the network boundary (back off RetryAfter, then resubmit — possibly
// against a restarted server), whatever the wrapped in-process
// classification was. Unwrap exposes the original *sched.AdmissionError
// so callers can still read the shed reason with errors.As.
type ShedError struct {
	RetryAfter time.Duration
	Err        error
}

// Error implements the error interface.
func (e *ShedError) Error() string {
	return fmt.Sprintf("serve: shed (retry after %v): %v", e.RetryAfter, e.Err)
}

// Unwrap exposes the wrapped refusal.
func (e *ShedError) Unwrap() error { return e.Err }

// Retryable marks the network-level shed as transient.
func (e *ShedError) Retryable() bool { return true }

// InstanceMismatchError reports that the instance answering an
// endpoint is not the one the client named in X-Fudj-Expect-Instance —
// the daemon restarted, or a balancer moved the address. It is
// retryable, and deliberately cheap: the server refuses before any
// execution or replay-cache lookup, so the client can re-key its
// idempotency scope and replay its session journal against the new
// instance (Got carries its ID), then resubmit.
type InstanceMismatchError struct {
	Want string // the instance the client expected
	Got  string // the instance that actually answered
}

// Error implements the error interface.
func (e *InstanceMismatchError) Error() string {
	return fmt.Sprintf("serve: instance changed: expected %s, got %s", e.Want, e.Got)
}

// Retryable marks the mismatch as transient: resubmit after re-keying.
func (e *InstanceMismatchError) Retryable() bool { return true }

// RemoteError is the decoded form of an error outside the structured
// taxonomy (planner errors, catalog misses, protocol misuse). The
// server's retryability verdict travels with it.
type RemoteError struct {
	Code      string
	Message   string
	Retry     bool
	RetryWait time.Duration
}

// Error implements the error interface.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("serve: remote %s error: %s", e.Code, e.Message)
}

// Retryable reports the server's classification.
func (e *RemoteError) Retryable() bool { return e.Retry }

// TransportError is a network-layer failure between client and server:
// dial refused, connection reset mid-response, a stalled read hitting
// its budget, or a corrupt frame. All are retryable — the query may
// never have run, or ran and only the response was lost; either way
// the idempotent resubmission key makes the retry safe.
type TransportError struct {
	Op  string
	Err error
}

// Error implements the error interface.
func (e *TransportError) Error() string { return fmt.Sprintf("serve: %s: %v", e.Op, e.Err) }

// Unwrap exposes the underlying network error.
func (e *TransportError) Unwrap() error { return e.Err }

// Retryable marks transport failures as transient.
func (e *TransportError) Retryable() bool { return true }

// RetryAfter extracts the server-supplied retry hint from a decoded
// error chain, when one is present.
func RetryAfter(err error) (time.Duration, bool) {
	var shed *ShedError
	if errors.As(err, &shed) && shed.RetryAfter > 0 {
		return shed.RetryAfter, true
	}
	var rem *RemoteError
	if errors.As(err, &rem) && rem.RetryWait > 0 {
		return rem.RetryWait, true
	}
	return 0, false
}

// EncodeError builds the envelope for one query failure. retryAfter is
// the server's hint for sheds (zero omits it). The retryable bit is the
// in-process classification — except drain sheds, which the network
// layer deliberately marks retryable (see the package comment).
func EncodeError(err error, retryAfter time.Duration) Envelope {
	env := Envelope{Code: CodeInternal, Message: err.Error(), Retryable: cluster.IsRetryable(err)}

	var adm *sched.AdmissionError
	var tmo *engine.TimeoutError
	var re *core.ResourceError
	var ue *core.UDFError
	var fe *cluster.FaultError
	var im *InstanceMismatchError
	switch {
	case errors.As(err, &adm):
		env.Code = CodeAdmission
		env.Admission = &AdmissionDetail{
			Reason:    int(adm.Reason),
			Priority:  int(adm.Priority),
			Queued:    adm.Queued,
			Running:   adm.Running,
			WantBytes: adm.WantBytes,
			FreeBytes: adm.FreeBytes,
			Canceled:  adm.Err != nil,
		}
		// Every shed gets the server's retry-after hint, and a drain
		// shed is upgraded to retryable at the network boundary.
		env.Retryable = true
		if retryAfter > 0 {
			env.RetryAfterMs = retryAfter.Milliseconds()
		}
	case errors.As(err, &tmo):
		env.Code = CodeTimeout
		env.Timeout = &TimeoutDetail{TimeoutNs: int64(tmo.Timeout)}
		env.Retryable = false
	case errors.As(err, &re):
		env.Code = CodeResource
		env.Resource = &ResourceDetail{
			Join: re.Join, Phase: re.Phase, Partition: re.Partition,
			Bytes: re.Bytes, Budget: re.Budget,
		}
		env.Retryable = false
	case errors.As(err, &ue):
		env.Code = CodeUDF
		env.UDF = &UDFDetail{
			Join: ue.Join, Phase: ue.Phase, Partition: ue.Partition,
			Record: ue.Record, Panic: fmt.Sprint(ue.Panic),
		}
		env.Retryable = false
	case errors.As(err, &fe):
		env.Code = CodeFault
		env.Fault = &FaultDetail{Kind: int(fe.Kind), Node: fe.Node, Part: fe.Part, Attempt: fe.Attempt}
		env.Retryable = true
	case errors.As(err, &im):
		env.Code = CodeInstance
		env.Instance = &InstanceDetail{Want: im.Want, Got: im.Got}
		env.Retryable = true
	}
	return env
}

// DecodeError rebuilds the concrete error a client should see from an
// envelope. Taxonomy errors come back as their original types;
// admission refusals are wrapped in a retryable *ShedError carrying
// the server's retry-after hint; everything else decodes to a
// *RemoteError holding the server's retryability verdict.
func DecodeError(env Envelope) error {
	retryAfter := time.Duration(env.RetryAfterMs) * time.Millisecond
	switch env.Code {
	case CodeAdmission:
		if env.Admission != nil {
			adm := &sched.AdmissionError{
				Reason:    sched.Reason(env.Admission.Reason),
				Priority:  sched.Priority(env.Admission.Priority),
				Queued:    env.Admission.Queued,
				Running:   env.Admission.Running,
				WantBytes: env.Admission.WantBytes,
				FreeBytes: env.Admission.FreeBytes,
			}
			if env.Admission.Canceled {
				adm.Err = context.Canceled
			}
			return &ShedError{RetryAfter: retryAfter, Err: adm}
		}
	case CodeTimeout:
		if env.Timeout != nil {
			return &engine.TimeoutError{
				Timeout: time.Duration(env.Timeout.TimeoutNs),
				Err:     context.DeadlineExceeded,
			}
		}
	case CodeResource:
		if env.Resource != nil {
			return &core.ResourceError{
				Join: env.Resource.Join, Phase: env.Resource.Phase,
				Partition: env.Resource.Partition,
				Bytes:     env.Resource.Bytes, Budget: env.Resource.Budget,
			}
		}
	case CodeUDF:
		if env.UDF != nil {
			return &core.UDFError{
				Join: env.UDF.Join, Phase: env.UDF.Phase,
				Partition: env.UDF.Partition, Record: env.UDF.Record,
				Panic: env.UDF.Panic,
			}
		}
	case CodeFault:
		if env.Fault != nil {
			return &cluster.FaultError{
				Kind: cluster.FaultKind(env.Fault.Kind), Node: env.Fault.Node,
				Part: env.Fault.Part, Attempt: env.Fault.Attempt,
			}
		}
	case CodeInstance:
		if env.Instance != nil {
			return &InstanceMismatchError{Want: env.Instance.Want, Got: env.Instance.Got}
		}
	}
	return &RemoteError{Code: env.Code, Message: env.Message, Retry: env.Retryable, RetryWait: retryAfter}
}
