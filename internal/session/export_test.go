package session

// ErrPoisonedReuse exposes the poisoned-reuse error to the external tests.
var ErrPoisonedReuse = errPoisonedReuse
