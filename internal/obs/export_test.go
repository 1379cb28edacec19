package obs

// Lookups returns how many times any goroutine has resolved its id since
// the process started. Tests difference two readings.
func Lookups() int64 { return lookups.Load() }
