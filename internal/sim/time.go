// Package sim provides a deterministic discrete-event simulation engine:
// a virtual clock, an event queue with stable ordering, periodic tasks, and
// reproducible random-number streams. All other substrates in this repository
// (cluster, workload, scheduler, monitor, controller) are driven by one
// Engine so that every experiment is exactly reproducible from a seed.
//
// Events fire in (time, scheduling sequence) order: ties at one timestamp
// fire in the order they were scheduled, and a periodic event's next firing
// is sequenced when the current one fires, before its callback runs.
//
// Scheduling returns a Handle, a value that can cancel the event. The zero
// Handle refers to no event: Cancel on it is a no-op and Valid reports
// false, so a component can hold a Handle field without a nil check. A
// handle is bound to one event by a generation number; once the event has
// fired or been cancelled, the handle cannot touch whatever event reuses
// its slot.
//
// Cancelling does not shrink the queue at once: the cancelled entry stays
// until it reaches the front and is dropped there. Pending counts those
// stale entries too.
//
// Hot callers schedule typed events with AtSlot/AfterSlot: one pre-bound
// SlotEvent plus an int32 index into the caller's own slab of pending work,
// so an event costs no closure. Steady-state scheduling, firing and
// cancelling allocate nothing.
package sim

import "fmt"

// Time is a virtual timestamp measured in milliseconds since the start of the
// simulation. It is deliberately not time.Time: simulations begin at zero and
// have no time zone or wall-clock meaning.
type Time int64

// Duration is a span of virtual time in milliseconds.
type Duration int64

// Common durations, mirroring the time package.
const (
	Millisecond Duration = 1
	Second               = 1000 * Millisecond
	Minute               = 60 * Second
	Hour                 = 60 * Minute
	Day                  = 24 * Hour
)

// Add returns t shifted forward by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t − u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Minute returns the zero-based index of the 1-minute interval containing t.
// The power monitor and controller both operate on these intervals.
func (t Time) Minute() int64 { return int64(t) / int64(Minute) }

// HourOfDay returns the hour-of-day in [0, 24) containing t. The Et estimator
// bins power-increase samples by this value.
func (t Time) HourOfDay() int { return int(int64(t) / int64(Hour) % 24) }

// String formats t as "d<days> hh:mm:ss.mmm" for logs and test output.
func (t Time) String() string {
	ms := int64(t)
	neg := ""
	if ms < 0 {
		neg, ms = "-", -ms
	}
	days := ms / int64(Day)
	ms %= int64(Day)
	h := ms / int64(Hour)
	ms %= int64(Hour)
	m := ms / int64(Minute)
	ms %= int64(Minute)
	s := ms / int64(Second)
	ms %= int64(Second)
	return fmt.Sprintf("%sd%d %02d:%02d:%02d.%03d", neg, days, h, m, s, ms)
}

// Seconds returns the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Minutes returns the duration as a floating-point number of minutes.
func (d Duration) Minutes() float64 { return float64(d) / float64(Minute) }

// Hours returns the duration as a floating-point number of hours.
func (d Duration) Hours() float64 { return float64(d) / float64(Hour) }

// DurationOfSeconds converts a floating-point number of seconds to a
// Duration, rounding to the nearest millisecond.
func DurationOfSeconds(s float64) Duration {
	if s < 0 {
		return Duration(s*float64(Second) - 0.5)
	}
	return Duration(s*float64(Second) + 0.5)
}

// DurationOfMinutes converts a floating-point number of minutes to a Duration.
func DurationOfMinutes(m float64) Duration { return DurationOfSeconds(m * 60) }

// String formats the duration compactly (e.g. "90s", "2m", "1.5s").
func (d Duration) String() string {
	switch {
	case d%Hour == 0 && d != 0:
		return fmt.Sprintf("%dh", int64(d/Hour))
	case d%Minute == 0 && d != 0:
		return fmt.Sprintf("%dm", int64(d/Minute))
	case d%Second == 0:
		return fmt.Sprintf("%ds", int64(d/Second))
	default:
		return fmt.Sprintf("%dms", int64(d))
	}
}
