package p2p

import (
	"errors"
	"net"
	"os"

	"approxcache/internal/simnet"
)

// ErrClass is a coarse failure taxonomy for peer exchanges. A peer's
// health record and circuit key their policies off it: timeouts and
// unreachable peers are strong down signals, a single lost message on a
// lossy radio link is weak evidence.
type ErrClass int

// Failure classes, roughly ordered from benign to severe.
const (
	// ErrClassNone marks a successful exchange.
	ErrClassNone ErrClass = iota
	// ErrClassLost marks a message dropped by link loss (expected at a
	// low rate on wireless links).
	ErrClassLost
	// ErrClassTimeout marks an exchange that exceeded its deadline or
	// the per-frame peer budget.
	ErrClassTimeout
	// ErrClassUnreachable marks a peer that is crashed, unknown to the
	// network, or refuses the connection.
	ErrClassUnreachable
	// ErrClassBadResponse marks a response that failed to decode or
	// carried an unexpected message kind.
	ErrClassBadResponse
	// ErrClassOther marks any remaining failure.
	ErrClassOther
)

// String returns the class name.
func (c ErrClass) String() string {
	switch c {
	case ErrClassNone:
		return "ok"
	case ErrClassLost:
		return "lost"
	case ErrClassTimeout:
		return "timeout"
	case ErrClassUnreachable:
		return "unreachable"
	case ErrClassBadResponse:
		return "bad-response"
	default:
		return "other"
	}
}

// Failure reports whether the class is a failed exchange.
func (c ErrClass) Failure() bool { return c != ErrClassNone }

// ErrBudgetExceeded marks a peer answer that arrived after the
// per-frame peer budget expired; the answer is discarded and the
// overrun is charged to the peer as a timeout.
var ErrBudgetExceeded = errors.New("p2p: peer budget exceeded")

// Classify maps a transport/protocol error to its failure class. nil
// classifies as ErrClassNone.
func Classify(err error) ErrClass {
	if err == nil {
		return ErrClassNone
	}
	switch {
	case errors.Is(err, ErrBudgetExceeded), errors.Is(err, os.ErrDeadlineExceeded):
		return ErrClassTimeout
	case errors.Is(err, simnet.ErrLost):
		return ErrClassLost
	case errors.Is(err, simnet.ErrCrashed), errors.Is(err, simnet.ErrUnknownNode):
		return ErrClassUnreachable
	case errors.Is(err, ErrTruncated), errors.Is(err, ErrUnknownKind),
		errors.Is(err, ErrFrameTooLarge), errors.Is(err, ErrWireVersion),
		errors.Is(err, ErrNonFinite):
		return ErrClassBadResponse
	}
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		return ErrClassTimeout
	}
	var operr *net.OpError
	if errors.As(err, &operr) {
		return ErrClassUnreachable
	}
	return ErrClassOther
}
