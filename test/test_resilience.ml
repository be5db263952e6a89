(* Tests for the overload-resilience stack: the circuit-breaker state
   machine, the adaptive admission layer (CoDel sojourn + token buckets)
   and its legacy FIFO fallback (model-checked), the always-armed sim
   watchdog, and determinism of the chaos harness on both engines. *)

module W = Sfi_wasm.Ast
module Strategy = Sfi_core.Strategy
module Codegen = Sfi_core.Codegen
module Pool = Sfi_core.Pool
module Runtime = Sfi_runtime.Runtime
module Machine = Sfi_machine.Machine
module Units = Sfi_util.Units
module Breaker = Sfi_faas.Breaker
module Sim = Sfi_faas.Sim
module Chaos = Sfi_inject.Chaos
open Sfi_wasm.Builder

(* --- circuit breaker state machine --------------------------------- *)

(* Jitter 0 makes every backoff exactly base * 2^(streak-1), so the
   schedule is checkable to the nanosecond. *)
let bcfg =
  {
    Breaker.failure_threshold = 3;
    base_backoff_ns = 1000.0;
    max_backoff_ns = 8000.0;
    backoff_jitter = 0.0;
    latency_threshold_ns = Some 500.0;
  }

let test_breaker_trips () =
  let b = Breaker.create bcfg in
  Alcotest.(check bool) "closed breaker admits" true (Breaker.allow b ~now:0.0);
  Breaker.on_failure b ~now:1.0;
  Breaker.on_failure b ~now:2.0;
  Alcotest.(check bool) "below threshold stays closed" true (Breaker.state b = Breaker.Closed);
  Breaker.on_failure b ~now:3.0;
  Alcotest.(check bool) "threshold failure opens" true (Breaker.state b = Breaker.Open);
  Alcotest.(check int) "one open so far" 1 (Breaker.opens b);
  Alcotest.(check (float 0.0)) "backoff is exactly base" 1003.0 (Breaker.retry_at b);
  Alcotest.(check bool) "open breaker refuses" false (Breaker.allow b ~now:1000.0)

let test_breaker_success_resets_streak () =
  let b = Breaker.create bcfg in
  Breaker.on_failure b ~now:1.0;
  Breaker.on_failure b ~now:2.0;
  Breaker.on_success b ~now:3.0;
  Breaker.on_failure b ~now:4.0;
  Breaker.on_failure b ~now:5.0;
  Alcotest.(check bool) "streak restarted by success" true (Breaker.state b = Breaker.Closed)

let trip b ~now =
  Breaker.on_failure b ~now;
  Breaker.on_failure b ~now;
  Breaker.on_failure b ~now

let test_breaker_half_open_single_probe () =
  let b = Breaker.create bcfg in
  trip b ~now:0.0;
  Alcotest.(check bool) "still backing off" false (Breaker.allow b ~now:999.0);
  Alcotest.(check bool) "backoff elapsed: probe admitted" true (Breaker.allow b ~now:1001.0);
  Alcotest.(check bool) "half-open" true (Breaker.state b = Breaker.Half_open);
  Alcotest.(check bool) "second probe refused while one is outstanding" false
    (Breaker.allow b ~now:1002.0);
  Breaker.on_success b ~now:1100.0;
  Alcotest.(check bool) "probe success closes" true (Breaker.state b = Breaker.Closed);
  Alcotest.(check bool) "closed again admits" true (Breaker.allow b ~now:1101.0)

let test_breaker_probe_failure_doubles_backoff () =
  let b = Breaker.create bcfg in
  trip b ~now:0.0;
  Alcotest.(check bool) "probe admitted" true (Breaker.allow b ~now:1000.0);
  Breaker.on_failure b ~now:1000.0;
  Alcotest.(check bool) "probe failure re-opens" true (Breaker.state b = Breaker.Open);
  Alcotest.(check int) "second open" 2 (Breaker.opens b);
  Alcotest.(check (float 0.0)) "backoff doubled" 3000.0 (Breaker.retry_at b);
  Alcotest.(check bool) "refused inside doubled backoff" false (Breaker.allow b ~now:2500.0);
  (* Keep failing: the backoff keeps doubling until max_backoff_ns. *)
  ignore (Breaker.allow b ~now:3001.0);
  Breaker.on_failure b ~now:3001.0;
  Alcotest.(check (float 0.0)) "backoff x4" 7001.0 (Breaker.retry_at b);
  ignore (Breaker.allow b ~now:7002.0);
  Breaker.on_failure b ~now:7002.0;
  Alcotest.(check (float 0.0)) "backoff reaches the cap" 15002.0 (Breaker.retry_at b);
  ignore (Breaker.allow b ~now:15003.0);
  Breaker.on_failure b ~now:15003.0;
  Alcotest.(check (float 0.0)) "backoff capped at max" 23003.0 (Breaker.retry_at b)

let test_breaker_latency_signal () =
  let b = Breaker.create bcfg in
  Breaker.on_slow b ~now:1.0 ~elapsed_ns:600.0;
  Breaker.on_slow b ~now:2.0 ~elapsed_ns:600.0;
  Breaker.on_slow b ~now:3.0 ~elapsed_ns:400.0;
  Alcotest.(check bool) "fast success resets the slow streak" true
    (Breaker.state b = Breaker.Closed);
  Breaker.on_slow b ~now:4.0 ~elapsed_ns:600.0;
  Breaker.on_slow b ~now:5.0 ~elapsed_ns:600.0;
  Breaker.on_slow b ~now:6.0 ~elapsed_ns:600.0;
  Alcotest.(check bool) "three slow successes trip the breaker" true
    (Breaker.state b = Breaker.Open)

let test_breaker_jitter_bounded_and_deterministic () =
  let cfg = { bcfg with Breaker.backoff_jitter = 0.5 } in
  let backoff_of seed =
    let b = Breaker.create ~seed cfg in
    trip b ~now:0.0;
    Breaker.retry_at b
  in
  let x = backoff_of 42L in
  Alcotest.(check (float 0.0)) "same seed, same jitter" x (backoff_of 42L);
  for s = 1 to 20 do
    let w = backoff_of (Int64.of_int s) in
    Alcotest.(check bool)
      (Printf.sprintf "jitter within [0.75, 1.25] x base (seed %d)" s)
      true
      (w >= 0.75 *. bcfg.Breaker.base_backoff_ns && w <= 1.25 *. bcfg.Breaker.base_backoff_ns)
  done

(* --- admission: engine helpers ------------------------------------- *)

let tiny_module () =
  let b = create ~memory_pages:1 () in
  let f = declare b "f" ~params:[] ~results:[ W.I32 ] () in
  define b f [ i32 7 ];
  build b

let pool8 () =
  let params =
    {
      Pool.num_slots = 8;
      max_memory_bytes = 4 * Units.mib;
      expected_slot_bytes = 4 * Units.mib;
      guard_bytes = 16 * Units.mib;
      pre_guard_enabled = false;
      num_pkeys_available = 15;
      stripe_enabled = false;
    }
  in
  match Pool.compute params with Ok l -> l | Error m -> failwith m

let code = lazy (Codegen.compile (Codegen.default_config ()) (tiny_module ()))

let engine ?(retry_queue_capacity = 64) ?admission () =
  let e =
    Runtime.create_engine
      ~allocator:(Runtime.Pool (pool8 ()))
      ~retry_queue_capacity (Lazy.force code)
  in
  Runtime.set_admission e admission;
  e

let fill ?n e =
  let n = match n with Some n -> n | None -> Runtime.num_slots e in
  Array.init n (fun _ -> Runtime.instantiate e)

(* --- admission: CoDel queue + token buckets ------------------------ *)

let test_admission_grant_and_fifo () =
  let e = engine ~admission:Runtime.default_admission () in
  (match Runtime.admit e ~ticket:1 ~tenant:1 ~now:0.0 with
  | `Ready _ -> ()
  | _ -> Alcotest.fail "free pool should grant immediately");
  let live = fill ~n:7 e in
  (* Pool now exhausted: 1 admission grant + 7 direct instantiations. *)
  (match Runtime.admit e ~ticket:2 ~tenant:2 ~now:1000.0 with
  | `Wait -> ()
  | _ -> Alcotest.fail "exhausted pool should park the ticket");
  (match Runtime.admit e ~ticket:3 ~tenant:3 ~now:2000.0 with
  | `Wait -> ()
  | _ -> Alcotest.fail "second ticket parks behind the first");
  Alcotest.(check int) "two parked" 2 (Runtime.waiting e);
  Runtime.kill live.(0);
  (match Runtime.admit e ~ticket:3 ~tenant:3 ~now:3000.0 with
  | `Wait -> ()
  | _ -> Alcotest.fail "ticket 3 must not jump the queue");
  (match Runtime.admit e ~ticket:2 ~tenant:2 ~now:3000.0 with
  | `Ready _ -> ()
  | _ -> Alcotest.fail "freed slot goes to the queue head");
  Alcotest.(check int) "one parked left" 1 (Runtime.waiting e)

let test_admission_ticket_deadline () =
  let e = engine ~admission:Runtime.default_admission () in
  let _live = fill e in
  (match Runtime.admit e ~ticket:9 ~tenant:9 ~now:0.0 with
  | `Wait -> ()
  | _ -> Alcotest.fail "should park");
  (* default ticket_deadline_ns = 2 ms: a ticket re-presented after that
     has lost its client and is shed even if a slot were free. *)
  match Runtime.admit e ~ticket:9 ~tenant:9 ~now:2.5e6 with
  | `Shed Runtime.Shed_sojourn -> ()
  | _ -> Alcotest.fail "stale ticket should shed on sojourn"

let test_admission_codel_sheds_at_head () =
  let e = engine ~admission:Runtime.default_admission () in
  let _live = fill e in
  (match Runtime.admit e ~ticket:1 ~tenant:1 ~now:0.0 with
  | `Wait -> ()
  | _ -> Alcotest.fail "should park");
  (* Sojourn 150 us > 100 us target: arms first_above = now + 500 us. *)
  (match Runtime.admit e ~ticket:1 ~tenant:1 ~now:150_000.0 with
  | `Wait -> ()
  | _ -> Alcotest.fail "first above-target pass only arms the interval");
  (* Still above target once the interval elapses: the head is shed. *)
  match Runtime.admit e ~ticket:1 ~tenant:1 ~now:700_000.0 with
  | `Shed Runtime.Shed_sojourn -> ()
  | _ -> Alcotest.fail "persistent above-target sojourn should shed the head"

let test_admission_codel_recovers_below_target () =
  let e = engine ~admission:Runtime.default_admission () in
  let live = fill e in
  (match Runtime.admit e ~ticket:1 ~tenant:1 ~now:0.0 with
  | `Wait -> ()
  | _ -> Alcotest.fail "should park");
  Runtime.kill live.(0);
  (* Sojourn 50 us < target: the queue is healthy, the head is granted. *)
  match Runtime.admit e ~ticket:1 ~tenant:1 ~now:50_000.0 with
  | `Ready _ -> ()
  | _ -> Alcotest.fail "below-target head with a free slot should be granted"

let test_admission_rate_limit () =
  let acfg = { Runtime.default_admission with Runtime.tenant_rate = 1000.0; tenant_burst = 1.0 } in
  let e = engine ~admission:acfg () in
  (match Runtime.admit e ~ticket:1 ~tenant:7 ~now:0.0 with
  | `Ready _ -> ()
  | _ -> Alcotest.fail "burst token admits the first arrival");
  (match Runtime.admit e ~ticket:2 ~tenant:7 ~now:0.0 with
  | `Shed Runtime.Shed_rate_limited -> ()
  | _ -> Alcotest.fail "empty bucket sheds the second arrival");
  (match Runtime.admit e ~ticket:3 ~tenant:8 ~now:0.0 with
  | `Ready _ -> ()
  | _ -> Alcotest.fail "buckets are per tenant");
  (* 1000 tokens/s: 2 ms refills the (burst-capped) single token. *)
  match Runtime.admit e ~ticket:4 ~tenant:7 ~now:2.0e6 with
  | `Ready _ -> ()
  | _ -> Alcotest.fail "bucket refills at the configured rate"

let test_admission_queue_capacity () =
  let e = engine ~retry_queue_capacity:2 ~admission:Runtime.default_admission () in
  let _live = fill e in
  (match Runtime.admit e ~ticket:1 ~tenant:1 ~now:0.0 with `Wait -> () | _ -> Alcotest.fail "park 1");
  (match Runtime.admit e ~ticket:2 ~tenant:2 ~now:0.0 with `Wait -> () | _ -> Alcotest.fail "park 2");
  (match Runtime.admit e ~ticket:3 ~tenant:3 ~now:0.0 with
  | `Shed Runtime.Shed_queue_full -> ()
  | _ -> Alcotest.fail "arrival beyond queue capacity sheds");
  (* Shed reasons carry stable codes for the trace stream. *)
  Alcotest.(check int) "sojourn code" 0 (Runtime.shed_reason_code Runtime.Shed_sojourn);
  Alcotest.(check int) "rate code" 1 (Runtime.shed_reason_code Runtime.Shed_rate_limited);
  Alcotest.(check int) "capacity code" 2 (Runtime.shed_reason_code Runtime.Shed_queue_full)

(* --- admission with no controller: FIFO, model-checked ------------- *)

(* Random interleavings of ticket presentation, release and kill against
   a reference model of the documented discipline: strict FIFO, only the
   head (or a newcomer finding an empty queue) may claim a freed slot,
   and [`Shed Shed_queue_full] exactly when a non-parked ticket arrives
   with the queue already holding [retry_queue_capacity] tickets. *)
let prop_fifo_model =
  let cap = 3 in
  let gen = QCheck.(list_of_size Gen.(int_range 1 80) (pair (int_range 0 11) (int_range 0 9))) in
  QCheck.Test.make ~count:120 ~name:"admit (no controller) matches the FIFO model" gen
    (fun ops ->
      let e = engine ~retry_queue_capacity:cap () in
      let queue = ref [] and free = ref (Runtime.num_slots e) and live = ref [] in
      let ok = ref true in
      let fail_at op msg =
        ok := false;
        QCheck.Test.fail_reportf "op %d: %s" op msg
      in
      List.iteri
        (fun i (op, ticket) ->
          if !ok then
            if op >= 10 then (
              match !live with
              | [] -> ()
              | inst :: rest ->
                  if op = 10 then Runtime.kill inst else Runtime.release inst;
                  live := rest;
                  incr free)
            else begin
              let queued = List.mem ticket !queue in
              let is_head = match !queue with h :: _ -> h = ticket | [] -> false in
              let can_claim = (is_head || ((not queued) && !queue = [])) && !free > 0 in
              let expect_reject = (not queued) && (not can_claim) && List.length !queue >= cap in
              (match Runtime.admit e ~ticket ~tenant:ticket ~now:0.0 with
              | `Ready inst ->
                  if not can_claim then fail_at i "granted out of FIFO order"
                  else begin
                    decr free;
                    live := inst :: !live;
                    if is_head then queue := List.tl !queue
                  end
              | `Shed Runtime.Shed_queue_full ->
                  if not expect_reject then
                    fail_at i "rejected though the queue was below capacity"
              | `Shed _ -> fail_at i "shed for a reason other than capacity"
              | `Wait ->
                  if can_claim then fail_at i "parked though head + free slot"
                  else if expect_reject then fail_at i "parked though the queue was full"
                  else if not queued then queue := !queue @ [ ticket ]);
              if !ok && Runtime.waiting e <> List.length !queue then
                fail_at i
                  (Printf.sprintf "queue depth %d, model %d" (Runtime.waiting e)
                     (List.length !queue))
            end)
        ops;
      !ok)

(* --- sim: the watchdog is always armed ----------------------------- *)

(* Regression pin: deadline fuel used to be attached only when the
   probabilistic fault model was non-zero, so a deliberately runaway
   tenant under [no_faults] spun forever without a watchdog kill. *)
let test_watchdog_always_armed () =
  let ov = { Sim.no_overload with Sim.runaway_tenants = [ 0 ] } in
  let r =
    Sim.run
      {
        (Sim.default_config ~overload:ov ()) with
        Sim.concurrency = 8;
        duration_ns = 2.0e6;
        io_mean_ns = 200_000.0;
        epoch_ns = 5_000.0;
      }
  in
  Alcotest.(check bool) "watchdog kills the runaway under a fault-free model" true
    (r.Sim.watchdog_kills > 0);
  Alcotest.(check bool) "healthy tenants still complete" true (r.Sim.completed > 0)

(* --- chaos determinism --------------------------------------------- *)

let chaos_cfg engine =
  {
    (Chaos.default_config ~seed:0xDE7L ~perturbations:40 ()) with
    Chaos.duration_ns = 15.0e6;
    concurrency = 32;
    engine = Some engine;
  }

let check_chaos_deterministic engine =
  let cfg = chaos_cfg engine in
  let a = Chaos.run cfg in
  let b = Chaos.run cfg in
  (match a.Chaos.violations with
  | [] -> ()
  | v :: _ ->
      Alcotest.failf "chaos violation [%d] %s: %s" v.Chaos.v_index v.Chaos.v_kind
        v.Chaos.v_detail);
  Alcotest.(check string) "same schedule digest" a.Chaos.digest b.Chaos.digest;
  Alcotest.(check string) "same sim counters" (Chaos.fingerprint a) (Chaos.fingerprint b);
  Alcotest.(check int) "every perturbation applied" 40 a.Chaos.sim.Sim.chaos_applied;
  Alcotest.(check int) "all breakers re-closed" 0 a.Chaos.sim.Sim.breakers_open_at_end

let test_chaos_deterministic_threaded () = check_chaos_deterministic Machine.Threaded
let test_chaos_deterministic_reference () = check_chaos_deterministic Machine.Reference

let test_chaos_seed_changes_schedule () =
  let p cfg = Chaos.plan_digest (Chaos.plan cfg) in
  let a = p (Chaos.default_config ~seed:1L ()) in
  let b = p (Chaos.default_config ~seed:2L ()) in
  Alcotest.(check bool) "different seeds, different schedules" true (a <> b)

let tests =
  [
    Harness.case "breaker trips at threshold" test_breaker_trips;
    Harness.case "breaker success resets streak" test_breaker_success_resets_streak;
    Harness.case "breaker half-open single probe" test_breaker_half_open_single_probe;
    Harness.case "breaker probe failure doubles backoff" test_breaker_probe_failure_doubles_backoff;
    Harness.case "breaker latency signal" test_breaker_latency_signal;
    Harness.case "breaker jitter bounded, deterministic" test_breaker_jitter_bounded_and_deterministic;
    Harness.case "admission grant and fifo" test_admission_grant_and_fifo;
    Harness.case "admission ticket deadline" test_admission_ticket_deadline;
    Harness.case "admission codel sheds at head" test_admission_codel_sheds_at_head;
    Harness.case "admission codel recovers below target" test_admission_codel_recovers_below_target;
    Harness.case "admission per-tenant rate limit" test_admission_rate_limit;
    Harness.case "admission queue capacity" test_admission_queue_capacity;
    QCheck_alcotest.to_alcotest prop_fifo_model;
    Harness.case "sim watchdog always armed" test_watchdog_always_armed;
    Harness.case "chaos deterministic (threaded)" test_chaos_deterministic_threaded;
    Harness.case "chaos deterministic (reference)" test_chaos_deterministic_reference;
    Harness.case "chaos seed changes schedule" test_chaos_seed_changes_schedule;
  ]
