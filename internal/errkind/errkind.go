// Package errkind is the single classification point for the typed
// errors that cross tool and service boundaries. Every error family the
// repository wants callers to branch on — infeasible repairs, malformed
// input specs, invalid schedules driving a simulator, unknown schema
// versions — matches one sentinel here via errors.Is, and one table
// derives every externally visible mapping from that match: the CLI
// process exit status (cliutil.ExitStatus) and the service HTTP status
// (internal/service). Adding a family means adding one sentinel and one
// table row; the CLIs and the daemon pick it up together.
package errkind

import (
	"errors"
	"fmt"
)

// The error families. Concrete error types claim membership either by
// implementing Is(target error) bool (see schedule.InfeasibleRepairError
// and sim.BadScheduleError) or by being wrapped with Mark.
var (
	// ErrBadInput marks malformed user input: topology/graph/allocator
	// spec strings, fault specs, or request JSON that fails validation.
	ErrBadInput = errors.New("bad input")
	// ErrInfeasibleRepair marks an unsurvivable fault: every rung of the
	// repair degradation ladder was rejected. It is an expected
	// operational outcome, not a malfunction.
	ErrInfeasibleRepair = errors.New("infeasible repair")
	// ErrBadSchedule marks an internally inconsistent schedule detected
	// while executing it (e.g. the event engine asked to run backwards).
	ErrBadSchedule = errors.New("bad schedule")
	// ErrUnknownVersion marks an artifact or request whose schema_version
	// this build does not understand.
	ErrUnknownVersion = errors.New("unknown schema version")
	// ErrUnavailable marks load shedding: the service is draining for
	// shutdown or its solve queue is full. The request was fine; retry
	// against a less busy instance.
	ErrUnavailable = errors.New("unavailable")
	// ErrNotFound marks a lookup of an artifact the server does not
	// hold — a watch subscription id that was never opened or has been
	// reaped, or a tenant id that is not admitted.
	ErrNotFound = errors.New("not found")
	// ErrAdmissionRejected marks a tenant admission the co-scheduler
	// declined: no rung of the degradation ladder fit the candidate into
	// the residual fabric without perturbing already-admitted tenants.
	// Like ErrInfeasibleRepair it is an expected operational outcome.
	ErrAdmissionRejected = errors.New("admission rejected")
)

// Class is one row of the classification table: the sentinel, a stable
// wire label, and the derived process exit status and HTTP status.
type Class struct {
	Kind error
	// Name is the machine-readable label carried in service error bodies.
	Name string
	// Exit is the CLI process exit status.
	Exit int
	// HTTP is the service response status.
	HTTP int
	// Detail is a stable one-line description of the family, carried in
	// the service error envelope's "detail" field so clients can show a
	// human-readable classification without hardcoding the table.
	Detail string
}

// Table maps every error family to its externally visible statuses.
// Order matters: the first sentinel the error matches wins, so more
// specific families come first. Exit statuses 0 and 2 are reserved
// (success and flag misuse); generic failures exit 1 / HTTP 500.
var Table = []Class{
	{Kind: ErrInfeasibleRepair, Name: "infeasible_repair", Exit: 3, HTTP: 422,
		Detail: "every rung of the repair degradation ladder was rejected"},
	{Kind: ErrAdmissionRejected, Name: "admission_rejected", Exit: 4, HTTP: 422,
		Detail: "the tenant does not fit the residual fabric at any degradation rung"},
	{Kind: ErrUnknownVersion, Name: "unknown_schema_version", Exit: 1, HTTP: 400,
		Detail: "this build does not understand the request's schema_version"},
	{Kind: ErrBadInput, Name: "bad_input", Exit: 1, HTTP: 400,
		Detail: "the request failed validation"},
	{Kind: ErrBadSchedule, Name: "bad_schedule", Exit: 1, HTTP: 500,
		Detail: "an internally inconsistent schedule was detected during execution"},
	{Kind: ErrUnavailable, Name: "unavailable", Exit: 1, HTTP: 503,
		Detail: "the service is draining or its solve queue is full; retry elsewhere"},
	{Kind: ErrNotFound, Name: "not_found", Exit: 1, HTTP: 404,
		Detail: "the requested artifact is not held by this replica"},
}

// Generic is the fallback classification for errors matching no family.
var Generic = Class{Name: "internal", Exit: 1, HTTP: 500,
	Detail: "unclassified internal error"}

// Classify returns the first table row whose sentinel err matches, or
// (Generic, false) when none does.
func Classify(err error) (Class, bool) {
	for _, c := range Table {
		if errors.Is(err, c.Kind) {
			return c, true
		}
	}
	return Generic, false
}

// ExitStatus derives the CLI process exit status for err.
func ExitStatus(err error) int {
	c, _ := Classify(err)
	return c.Exit
}

// HTTPStatus derives the service response status for err.
func HTTPStatus(err error) int {
	c, _ := Classify(err)
	return c.HTTP
}

// Name returns the wire label for err's family ("internal" when
// unclassified).
func Name(err error) string {
	c, _ := Classify(err)
	return c.Name
}

// ByName returns the sentinel whose wire label is name, or nil for an
// unknown (or "internal") label. It is the inverse of Name, used by
// clients that rebuild typed errors from service error bodies so exit
// statuses survive the HTTP round trip.
func ByName(name string) error {
	for _, c := range Table {
		if c.Name == name {
			return c.Kind
		}
	}
	return nil
}

// BadInput is a malformed-input error built from a message: the
// fmt.Errorf of format and args, marked ErrBadInput.
func BadInput(format string, args ...any) error {
	return Mark(fmt.Errorf(format, args...), ErrBadInput)
}

// Mark wraps err so that it matches kind under errors.Is while keeping
// the original chain intact. A nil err stays nil.
func Mark(err, kind error) error {
	if err == nil {
		return nil
	}
	return &marked{err: err, kind: kind}
}

type marked struct {
	err  error
	kind error
}

func (m *marked) Error() string { return m.err.Error() }
func (m *marked) Unwrap() error { return m.err }
func (m *marked) Is(target error) bool {
	return target == m.kind
}
