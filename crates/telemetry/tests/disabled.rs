//! No-collector semantics: every entry point must be inert until
//! `install()` runs. Integration tests get their own process, so this
//! file observes the pristine (never-installed) state — keep any test
//! that *installs* the collector in `installed_last` position-proof by
//! filtering, or in the unit suite instead.

use pem_telemetry as telemetry;
use telemetry::{Counter, Span};

static COUNTER: Counter = Counter::new();

#[test]
fn everything_is_inert_before_install() {
    assert!(!telemetry::enabled());

    // Spans record nothing.
    Span::enter("disabled/span", "test").finish();
    Span::enter_at("disabled/vspan", "test", 7).finish_at(9);
    assert_eq!(telemetry::event_count(), 0);
    assert!(telemetry::drain().is_empty());

    // Counters stay at zero.
    telemetry::register_counter("disabled/counter", &COUNTER);
    COUNTER.add(10);
    COUNTER.incr();
    assert_eq!(COUNTER.get(), 0);

    // Message records (the traffic journal) stay empty.
    telemetry::record_msg(1, 0, 1, "disabled/label", 99, 0, 5);
    assert_eq!(telemetry::msg_count(), 0);

    // The registry itself works (registration is not gated).
    assert!(telemetry::counter_snapshot()
        .iter()
        .any(|(n, v)| *n == "disabled/counter" && *v == 0));

    // And after install the same statics come alive.
    assert!(telemetry::install(), "first install returns true");
    assert!(!telemetry::install(), "second install is idempotent");
    COUNTER.add(2);
    Span::enter("disabled/now-live", "test").finish();
    assert_eq!(COUNTER.get(), 2);
    assert_eq!(telemetry::event_count(), 1);

    // Uninstall drops buffered events and re-gates the hot paths.
    telemetry::uninstall();
    assert!(!telemetry::enabled());
    assert_eq!(telemetry::event_count(), 0);
    COUNTER.add(5);
    assert_eq!(COUNTER.get(), 2, "counter re-gated after uninstall");
}
