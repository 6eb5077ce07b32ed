package core

import (
	"errors"
	"fmt"
)

// ErrInvalidInput marks errors caused by invalid caller input (a threshold
// outside (0,1], an impossible period range, …) as opposed to internal or
// cancellation failures. Callers serving untrusted requests match it with
// errors.Is to map bad input to a client error rather than a server error.
var ErrInvalidInput = errors.New("core: invalid input")

// invalidInputError is a validation failure; its message is the full
// diagnostic and it matches ErrInvalidInput under errors.Is.
type invalidInputError struct{ msg string }

func (e *invalidInputError) Error() string { return e.msg }

func (e *invalidInputError) Is(target error) bool { return target == ErrInvalidInput }

// invalidf builds an input-validation error that matches ErrInvalidInput.
func invalidf(format string, args ...any) error {
	return &invalidInputError{msg: fmt.Sprintf(format, args...)}
}
