package serve

import (
	"errors"
	"fmt"
	"net/http"

	"asbr/internal/cpu"
	"asbr/internal/serve/apitypes"
)

// ErrorBody (an alias of apitypes.ErrorBodyV1, see api.go) is the
// structured error every endpoint returns, wrapped in an
// {"error": ...} envelope.

// Service-level error codes.
const (
	CodeBadRequest   = "bad-request"
	CodeBadProgram   = "bad-program" // posted source failed to assemble/compile
	CodeBackpressure = "backpressure"
	CodeDraining     = "draining"
	CodeNotFound     = "not-found"
	CodeInternal     = "internal"
)

// apiError is a service-level failure with a fixed HTTP status.
type apiError struct {
	status int
	body   ErrorBody
}

func (e *apiError) Error() string { return e.body.Message }

func badRequest(format string, args ...any) *apiError {
	return &apiError{status: http.StatusBadRequest,
		body: ErrorBody{Code: CodeBadRequest, Message: fmt.Sprintf(format, args...)}}
}

func badProgram(err error) *apiError {
	return &apiError{status: http.StatusBadRequest,
		body: ErrorBody{Code: CodeBadProgram, Message: err.Error()}}
}

func notFound(format string, args ...any) *apiError {
	return &apiError{status: http.StatusNotFound,
		body: ErrorBody{Code: CodeNotFound, Message: fmt.Sprintf(format, args...)}}
}

var errBackpressure = &apiError{status: http.StatusTooManyRequests,
	body: ErrorBody{Code: CodeBackpressure, Message: "job queue full, retry later"}}

var errDraining = &apiError{status: http.StatusServiceUnavailable,
	body: ErrorBody{Code: CodeDraining, Message: "server is draining"}}

// toHTTP maps any error onto an HTTP status and a structured body.
//
//	service errors        their fixed status (400/404/429/503)
//	*cpu.SimError         by code — see simStatus
//	anything else         500 internal
func toHTTP(err error) (int, ErrorBody) {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae.status, ae.body
	}
	var se *cpu.SimError
	if errors.As(err, &se) {
		return simStatus(se.Code), apitypes.EncodeSimError(se)
	}
	return http.StatusInternalServerError, ErrorBody{Code: CodeInternal, Message: err.Error()}
}

// simStatus maps a simulation failure class onto an HTTP status: the
// guest program (and its budgets) are part of the request, so guest
// faults and exhausted budgets are the client's problem (422), a
// wall-clock trip is a timeout (408), and a configuration the CPU
// rejected outright is a bad request (400). The daemon itself is
// healthy in every one of these cases.
func simStatus(c cpu.ErrCode) int {
	switch c {
	case cpu.ErrBadConfig:
		return http.StatusBadRequest
	case cpu.ErrCanceled:
		return http.StatusRequestTimeout
	default:
		// cycle-limit and all guest faults (bad-opcode, unaligned
		// access, out-of-range memory, text overrun, fetch fault,
		// divide by zero, bad syscall, break).
		return http.StatusUnprocessableEntity
	}
}
