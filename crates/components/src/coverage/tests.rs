use jcc_cofg::build_component_cofgs;
use jcc_cofg::coverage::CoverageTracker;
use jcc_model::examples::producer_consumer;
use jcc_runtime::{EventLog, NativeComponent};
use jcc_vm::Value;

use crate::native::call;

#[test]
fn markers_flow_into_tracker() {
    let c = producer_consumer();
    let mut tracker = CoverageTracker::new(build_component_cofgs(&c));
    let log = EventLog::new();
    let pc = NativeComponent::new(jcc_vm::compile(&c).unwrap(), &log);
    // start -> notifyAll -> end: no wait on an empty buffer.
    call(&pc, "send", &[Value::Str("x".into())]);
    for e in log.snapshot() {
        tracker.observe(&e);
    }
    assert_eq!(tracker.covered_arcs(), 2);
    assert_eq!(tracker.strays, 0);
}
