(* serve-kv: an open-loop, single-domain Sim.run of Micro_kv, and the
   per-layer split of its host cost per request. *)

module Sim = Sfi_faas.Sim
module Shard = Sfi_faas.Shard
module Workloads = Sfi_faas.Workloads
module Runtime = Sfi_runtime.Runtime
module Machine = Sfi_machine.Machine
module Trace = Sfi_trace.Trace
module Hist = Sfi_util.Hist
module Prng = Sfi_util.Prng

(* One schedule: 5 simulated ms at a mean 3M req/s, ~15k arrivals. The
   diurnal peak, 1.6x the mean, stays below the ~5.76M req/s one simulated
   core serves, so the backlog stays bounded; at 4M req/s the peak
   overruns it and the tail latency swings with the seed. A run serves
   [schedules] independent schedules drawn from the seed and pools their
   outcomes: the tail of a single schedule still swings with the luck of
   its arrival process. *)
let duration_ns = 5e6
let rps = 3e6
let schedules = 8

let arrivals ~seed k =
  Workloads.synthesize
    ~seed:(Prng.split_seed ~seed (2 * k))
    ~tenants:Handler.tenants ~duration_ns ~rps
    ~shape:(Workloads.Diurnal { trough = 0.25 })
    ~popularity:(Workloads.Zipf { skew = 0.6 })
    ()

(* The scale experiment's single-shard settings. *)
let config ~seed k arrivals =
  {
    (Sim.default_config ~workload:Workloads.Micro_kv
       ~overload:
         {
           Sim.no_overload with
           Sim.admission = Some { Runtime.default_admission with Runtime.tenant_rate = 60_000.0 };
         }
       ~fair_scheduling:true ())
    with
    Sim.concurrency = Handler.tenants;
    duration_ns;
    seed = Prng.split_seed ~seed ((2 * k) + 1);
    arrivals = Some arrivals;
  }

(* What a server does before its first request: draw the schedules, build
   and compile the module, create the engine. Returns each schedule's
   offered arrivals and Sim config. *)
let setup spans ~seed =
  let cfgs =
    Array.init schedules (fun k ->
        let arr =
          Span.record spans ~cat:"request" "faas.workloads.synthesize" (fun () -> arrivals ~seed k)
        in
        (Array.length arr, config ~seed k arr))
  in
  let m =
    Span.record spans ~cat:"lifecycle" "faas.workloads.module_of" (fun () ->
        Workloads.module_of Workloads.Micro_kv)
  in
  let compiled =
    Span.record spans ~cat:"lifecycle" "core.codegen.compile" (fun () -> Handler.compile m)
  in
  ignore
    (Span.record spans ~cat:"lifecycle" "runtime.create_engine" (fun () ->
         Handler.engine compiled));
  cfgs

(* A Sim.run's host cost and identity. Results themselves are dropped as
   soon as they are read: each holds two histograms per tenant. *)
type rep = { cost : Meter.cost; instructions : int; fingerprint : int64 }

let run_sim ?(spans = Span.disabled) cfg =
  Machine.reset_retired_instructions ();
  let result, cost =
    Meter.measure (fun () ->
        Span.record spans ~cat:"request" "faas.sim.run" (fun () -> Sim.run cfg))
  in
  ( result,
    {
      cost;
      instructions = Machine.retired_instructions ();
      fingerprint = Shard.result_fingerprint result;
    } )

let sheds (r : Sim.result) =
  r.shed_sojourn + r.shed_rate_limited + r.shed_queue_full + r.shed_priority + r.breaker_fast_fails

(* Offered arrivals that reached no terminal outcome by the end of the
   run (still queued or in service). Negative means lost accounting. *)
let unserved ~offered (r : Sim.result) =
  offered - (r.completed + r.failed + r.collateral_aborts + sheds r)

(* End-to-end latency merged over every tenant of every result pooled. *)
let pool_e2e (pooled : Hist.t option ref) (r : Sim.result) =
  Array.iter
    (fun t ->
      match !pooled with
      | None -> pooled := Some (Hist.copy t.Sim.t_e2e_hist)
      | Some h -> Hist.merge h t.Sim.t_e2e_hist)
    r.tenants

let check_rep ?(words = true) report ~offered first ((r : Sim.result), rep) =
  Report.attempt_many report ~n:offered ~failed:(r.failed + r.collateral_aborts + sheds r);
  Report.check report (rep.fingerprint = first.fingerprint)
    "serve-kv: Shard.result_fingerprint differs on a repeat at the same seed";
  Report.check report
    ((not words) || rep.cost.words = first.cost.words)
    "serve-kv: minor words per Sim.run differ on a repeat (%.0f vs %.0f)" rep.cost.words
    first.cost.words;
  Report.check report (unserved ~offered r >= 0) "serve-kv: unserved_at_end is negative (%d)"
    (unserved ~offered r)

(* Simulated cycles per request of the handler under each strategy, on
   a plain (non-ColorGuard) engine: the serving analogue of a kernel's
   cycles against native. *)
let cycle_ratios report =
  let cycles strategy =
    let (a : Handler.arm) =
      Handler.arm ~batches:1 ~name:"handler.batch"
        (Handler.engine (Handler.compile ~colorguard:false ~strategy
           (Workloads.module_of Workloads.Micro_kv)))
    in
    Report.check report a.checksum_ok "micro_kv under %s: checksum differs from the interpreter"
      (Sfi_core.Strategy.name strategy);
    float_of_int a.counters.cycles
  in
  let native = cycles Sfi_core.Strategy.native in
  (cycles Sfi_core.Strategy.segue /. native, cycles Sfi_core.Strategy.wasm_default /. native)

let setups = 15

let e2e report ~seed ~seconds =
  let setup_costs, cfgs =
    let costs = ref [] and last = ref [||] in
    for _ = 1 to setups do
      let v, c = Meter.measure (fun () -> setup Span.disabled ~seed) in
      costs := c.Meter.ns :: !costs;
      last := v
    done;
    (!costs, !last)
  in
  let start = Meter.now_s () in
  (* A warm-up run pays one-time allocation; every later run of a
     schedule must repeat its first measured run exactly. *)
  let offered0, cfg0 = cfgs.(0) in
  let warm = run_sim cfg0 in
  check_rep report ~offered:offered0 (snd warm) warm;
  let pooled = ref None and goodput = ref 0.0 in
  let firsts =
    Array.map
      (fun (offered, cfg) ->
        let ((r, rep) as run) = run_sim cfg in
        check_rep report ~offered rep run;
        pool_e2e pooled r;
        goodput := !goodput +. r.Sim.goodput_rps;
        rep)
      cfgs
  in
  Report.check report (firsts.(0).fingerprint = (snd warm).fingerprint)
    "serve-kv: Shard.result_fingerprint differs on a repeat at the same seed";
  let rounds = ref [ Array.to_list (Array.mapi (fun k r -> (fst cfgs.(k), r)) firsts) ] in
  while Meter.elapsed_s start < seconds || List.length !rounds < 2 do
    let round =
      Array.to_list
        (Array.mapi
           (fun k (offered, cfg) ->
             let run = run_sim cfg in
             check_rep report ~offered firsts.(k) run;
             (offered, snd run))
           cfgs)
    in
    rounds := round :: !rounds
  done;
  let rounds = !rounds in
  let reps = List.concat rounds in
  let total f = Meter.sum (List.map f reps) in
  let words = total (fun (_, r) -> r.cost.Meter.words) in
  let instructions (_, r) = float_of_int r.instructions in
  let offered (o, _) = float_of_int o in
  let instr = total instructions in
  let reqs = total offered in
  let ns = total (fun (_, r) -> r.cost.Meter.ns) in
  let per_instr = List.map (fun (_, r) -> r.cost.Meter.ns /. float_of_int r.instructions) reps in
  let segue, basereg = cycle_ratios report in
  let e2e p = Hist.percentile (Option.get !pooled) p /. 1e3 in
  Report.note "serve-kv: %d schedules, %.0f arrivals per round, %d rounds" schedules
    (Meter.sum (Array.to_list (Array.map offered cfgs)))
    (List.length rounds);
  let add ?scale = Report.add ?scale report in
  add ~scale:Time "setup_s" "s" (Meter.median setup_costs /. 1e9);
  add "peak_heap_mb" "MiB" (Meter.peak_heap_mib ());
  add ~scale:Rate "sim_mips" "Minstr/s" (instr /. ns *. 1e3);
  add ~scale:Time "instr_ns_p50" "ns" (Meter.pct per_instr 50.0);
  add ~scale:Time "instr_ns_p90" "ns" (Meter.pct per_instr 90.0);
  add "words_per_instr" "words/instr" (words /. instr);
  add "segue_cycles_vs_native" "ratio" segue;
  add "basereg_cycles_vs_native" "ratio" basereg;
  add ~scale:Rate "host_req_per_s" "req/s" (reqs /. ns *. 1e9);
  add "words_per_req" "words/req" (words /. reqs);
  add "sim_goodput_rps" "sim_req/s" (!goodput /. float_of_int schedules);
  add "sim_e2e_p50_us" "sim_us" (e2e 50.0);
  add "sim_e2e_p99_us" "sim_us" (e2e 99.0);
  Report.note "instr_ns_p50/p90 over %d Sim.run samples" (List.length reps)

(* --- per-layer split of a request --------------------------------------- *)

(* Sim.run with the default sink (Trace.null), with Trace.null passed
   explicitly (the same configuration: an A/A measure of the noise floor),
   and with a ring, interleaved. Traced and untraced results must be
   bit-identical. *)
let ledger report spans ~seed ~reps (rt : Handler.runtime_costs) =
  let synth =
    List.init 3 (fun _ ->
        let arr, c =
          Meter.measure (fun () ->
              Span.record spans ~cat:"request" "faas.workloads.synthesize" (fun () ->
                  arrivals ~seed 0))
        in
        c.Meter.ns /. float_of_int (Array.length arr))
  in
  let arr = arrivals ~seed 0 in
  let offered = Array.length arr in
  let base = config ~seed 0 arr in
  let ring = Trace.create_ring ~capacity:(1 lsl 18) () in
  let arms = [| base; { base with Sim.trace = Trace.null }; { base with Sim.trace = ring } |] in
  let samples = Array.make 3 [] in
  let first = ref None in
  for _ = 1 to reps do
    Array.iteri
      (fun i cfg ->
        Trace.clear ring;
        let ((_, rep) as run) = run_sim ~spans cfg in
        (match !first with
        | None -> first := Some run
        | Some (_, f) -> check_rep ~words:false report ~offered f run);
        samples.(i) <- rep.cost.Meter.ns :: samples.(i))
      arms
  done;
  let r, f = Option.get !first in
  let per_req x = float_of_int x /. float_of_int offered in
  let overhead i = (Meter.median samples.(i) /. Meter.median samples.(0) -. 1.0) *. 100.0 in
  let served = per_req (r.completed + r.failed) in
  let admitted = per_req r.admitted and recycles = per_req r.recycles in
  (* Every slot grant goes through admit, recycled slots included, so
     recycles are not subtracted a second time. *)
  let self (pick : Handler.call_cost -> float) total =
    (total /. float_of_int offered) -. (served *. pick rt.step) -. (admitted *. pick rt.admit)
  in
  let unserved = unserved ~offered r in
  Report.check report (unserved >= 0) "serve-kv: unserved_at_end is negative (%d)" unserved;
  let add ?scale = Report.add ?scale report in
  add ~scale:Time "faas.workloads.synthesize_ns_per_arrival" "ns" (Meter.median synth);
  add "faas.sim.transitions_per_req" "count" (per_req r.user_transitions);
  add "faas.sim.admitted_per_req" "count" admitted;
  add "faas.sim.recycles_per_req" "count" recycles;
  add "faas.sim.instructions_per_req" "count" (per_req f.instructions);
  add ~scale:Time "faas.sim.self_ns_per_req" "ns"
    (self (fun c -> c.Handler.ns_per_call) (Meter.median samples.(0)));
  add "faas.sim.self_words_per_req" "words"
    (self (fun c -> c.Handler.words_per_call) f.cost.Meter.words);
  add "faas.sim.shed_share" "ratio" (per_req (sheds r));
  add "faas.sim.unserved_at_end" "count" (float_of_int unserved);
  add "trace.null_overhead_pct" "%" (overhead 1);
  add "trace.ring_overhead_pct" "%" (overhead 2);
  Report.note "serving ledger: %d arrivals, %d repeats per arm, ring kept %d events (%d dropped)"
    offered reps (Trace.length ring) (Trace.dropped ring)

(* --- traced run ---------------------------------------------------------- *)

let traced report ~workload ~seed ~seconds =
  let spans = Span.create ~enabled:true in
  for i = 1 to setups do
    Span.set_iter spans (-i);
    ignore (Span.record spans ~cat:"lifecycle" "setup" (fun () -> setup spans ~seed))
  done;
  Ledger.setup_layers report spans;
  let arr = arrivals ~seed 0 in
  let offered = Array.length arr in
  let cfg = config ~seed 0 arr in
  (* The same Sim.run untraced and inside a span, alternating, for half
     the run's seconds: the ledger below takes about as long again. *)
  let _, first = run_sim cfg in
  let untraced = ref 0.0 and traced = ref 0.0 and i = ref 0 in
  let start = Meter.now_s () in
  while Meter.elapsed_s start < seconds /. 2.0 || !i < 2 do
    Span.set_iter spans !i;
    let u = run_sim cfg in
    let t = run_sim ~spans cfg in
    check_rep ~words:false report ~offered first u;
    check_rep ~words:false report ~offered first t;
    untraced := !untraced +. (snd u).cost.Meter.ns;
    traced := !traced +. (snd t).cost.Meter.ns;
    incr i
  done;
  Ledger.span_overhead report ~untraced:!untraced ~traced:!traced;
  Span.set_iter spans (-100);
  Ledger.handler_kernel_path report spans;
  let rt = Ledger.runtime report spans in
  ledger report spans ~seed ~reps:5 rt;
  Ledger.export report spans ~workload ~seed
