// Fixture: trips flight-event-guard — emitting a lifecycle event through a
// raw flight-ring record() call instead of the null-guarded
// obs::Sink::ledger (crashes when the recorder is detached). Not compiled.

namespace ftsched {

struct Ring {
  void record(int event) { (void)event; }
};

void emit_unguarded(Ring* flight_) {
  flight_->record(42);  // bad: must go through obs::Sink::ledger
}

}  // namespace ftsched
