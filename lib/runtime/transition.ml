(* The sandbox-boundary cost model.

   Every crossing is counted; what it costs depends on which springboard
   handles it. Invokes always take the full path (stack switch, exception
   handler, PKRU restore on the way out). Hostcalls are classified at
   registration (see {!Rt_types.hostcall_class}) and the cheap classes
   skip most of the work — in particular both [wrpkru]s, the dominant
   term under ColorGuard (§6.1). A [wrpkru] is also elided whenever the
   write would not change the PKRU image (a color-0 sandbox runs under
   the host image already). *)

open Rt_types
module Mpk = Sfi_vmem.Mpk
module Cost = Sfi_machine.Cost
module Trace = Sfi_trace.Trace

(* Fixed stack-switch, exception-handler and ABI work of one transition
   direction, besides the instructions the entry sequence itself
   executes: calibrated to the paper's 30.34 ns baseline at 2.2 GHz
   (sec 6.4.1). *)
let transition_overhead_cycles = 55

(* The thin hostcall springboards of the cheap classes, per Kolosick et
   al.'s zero-cost transitions: no stack switch and no PKRU write. *)
let pure_springboard_cycles = 10
let readonly_springboard_cycles = 24

let colorguard e = e.compiled.Codegen.config.Codegen.colorguard
let wrpkru_cycles e = (Machine.cost_model e.machine).Cost.wrpkru_cycles

(* Modeled springboard cycles have no executed instructions behind them;
   they go straight onto the machine's cycle counter. *)
let charge_cycles e n = Machine.charge_extra_cycles e.machine n

(* Every per-engine counter bump mirrors into the domain-local aggregate
   (see {!Rt_types.domain_counters}): the helpers below bump both. *)
let count_transitions e n =
  e.counters.transitions <- e.counters.transitions + n;
  let d = domain_counters () in
  d.transitions <- d.transitions + n

let count_elided e n =
  e.counters.pkru_writes_elided <- e.counters.pkru_writes_elided + n;
  let d = domain_counters () in
  d.pkru_writes_elided <- d.pkru_writes_elided + n

(* Entry half of an invoke: fixed stack-switch / exception-handler setup.
   The entry-sequence [wrpkru] is real compiled code, charged by the
   machine as it executes. Opens the per-sandbox transition span. *)
let charge_entry e inst =
  Trace.call_begin e.trace ~sandbox:inst.id;
  count_transitions e 1;
  charge_cycles e transition_overhead_cycles

(* Exit half of an invoke: same fixed overhead, plus restoring the host
   PKRU image — unless the sandbox image {e is} the host image (color 0),
   where the springboard skips the second [wrpkru]. *)
let charge_exit e inst =
  count_transitions e 1;
  charge_cycles e transition_overhead_cycles;
  if colorguard e then begin
    Machine.set_pkru e.machine Mpk.allow_all;
    if inst.inst_color <> 0 then charge_cycles e (wrpkru_cycles e)
    else count_elided e 1
  end;
  (* Close the span after the exit overhead so its duration covers the
     whole round trip, springboards included. *)
  Trace.call_end e.trace ~sandbox:inst.id

(* A hostcall is a round trip: two crossings, charged by class. [Full]
   pays the general springboard both ways; [Pure]/[Readonly] pay only a
   thin call shim and skip both PKRU writes entirely ([Readonly] runs
   under the sandbox's own image — pkey 0 keeps the host block
   reachable). *)
let charge_hostcall e inst clazz =
  let c = e.counters and d = domain_counters () in
  count_transitions e 2;
  let cost =
    match clazz with
    | Pure ->
        c.calls_pure <- c.calls_pure + 1;
        d.calls_pure <- d.calls_pure + 1;
        if colorguard e then count_elided e 2;
        pure_springboard_cycles
    | Readonly ->
        c.calls_readonly <- c.calls_readonly + 1;
        d.calls_readonly <- d.calls_readonly + 1;
        if colorguard e then count_elided e 2;
        readonly_springboard_cycles
    | Full ->
        c.calls_full <- c.calls_full + 1;
        d.calls_full <- d.calls_full + 1;
        let base = 2 * transition_overhead_cycles in
        if colorguard e then
          if inst.inst_color <> 0 then base + (2 * wrpkru_cycles e)
          else begin
            count_elided e 2;
            base
          end
        else base
  in
  charge_cycles e cost;
  if Trace.enabled e.trace then
    let cls = match clazz with Pure -> 0 | Readonly -> 1 | Full -> 2 in
    Trace.hostcall e.trace ~sandbox:inst.id ~cls ~cycles:cost
