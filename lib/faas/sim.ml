module Machine = Sfi_machine.Machine
module Cost = Sfi_machine.Cost
module Runtime = Sfi_runtime.Runtime
module Codegen = Sfi_core.Codegen
module Strategy = Sfi_core.Strategy
module Pool = Sfi_core.Pool
module Prng = Sfi_util.Prng
module Units = Sfi_util.Units
module Stats = Sfi_util.Stats
module Hist = Sfi_util.Hist
module Trace = Sfi_trace.Trace
module Flight = Sfi_trace.Flight

type mode = Colorguard | Multiprocess of int

type fault_model = {
  trap_rate : float;
  runaway_rate : float;
  deadline_epochs : int;
  respawn_ns : float;
}

let no_faults =
  { trap_rate = 0.0; runaway_rate = 0.0; deadline_epochs = 8; respawn_ns = 500_000.0 }

(* Overload-resilience policy: adaptive admission over a slot pool that
   may be smaller than the closed-loop population, per-tenant circuit
   breakers, a graceful-degradation ladder, and deliberately misbehaving
   tenants to aim them at. All off by default ([no_overload]), in which
   case the sim behaves exactly as before. *)
type overload = {
  pool_slots : int option;
  admission : Sfi_runtime.Runtime.admission_config option;
  breaker : Breaker.config option;
  degradation : bool;
  hedged_retries : bool;
  request_deadline_ns : float option;
  crash_tenants : int list;
  runaway_tenants : int list;
  low_priority : int -> bool;
  slo : Slo.config option;
}

let no_overload =
  {
    pool_slots = None;
    admission = None;
    breaker = None;
    degradation = false;
    hedged_retries = false;
    request_deadline_ns = None;
    crash_tenants = [];
    runaway_tenants = [];
    low_priority = (fun _ -> false);
    slo = None;
  }

(* Chaos perturbations applied to the live run on a schedule the caller
   supplies (see {!Sfi_inject.Chaos} for the seeded planner). *)
type chaos_action =
  | Chaos_kill
  | Chaos_latency of { factor : float; window_ns : float }
  | Chaos_instantiate_fail of int

type chaos_event = { at_ns : float; action : chaos_action }

type chaos_report = {
  cr_index : int;
  cr_at_ns : float;
  cr_action : chaos_action;
  cr_victim : int;
  cr_failed : int array;
}

type config = {
  mode : mode;
  workload : Workloads.t;
  concurrency : int;
  duration_ns : float;
  io_mean_ns : float;
  epoch_ns : float;
  os_switch_ns : float;
  faults : fault_model;
  seed : int64;
  churn : bool;
  page_zero_ns : float;
  legacy_lifecycle : bool;
  trace : Trace.t;
  flight : Flight.t option;
      (* Fault flight recorder. When armed it taps the trace sink (or
         becomes the sink for untraced runs) and freezes a post-mortem
         bundle on faults, breaker trips and chaos perturbations. Pure
         observer: arming it never changes simulation state. *)
  overload : overload;
  engine : Machine.engine_kind option;
  chaos : chaos_event list;
  on_perturbation : (chaos_report -> unit) option;
  fair_scheduling : bool;
  arrivals : Workloads.arrival array option;
      (* [None] = the historical closed loop: [concurrency] clients that
         re-issue after an exponential think time. [Some schedule] = open
         loop: one slot per tenant ([concurrency] = tenant count) serving
         that tenant's scheduled arrival times — the trace-shaped load
         the sharded serving layer generates. A tenant whose previous
         request is still in service when the next arrival fires serves
         it late (e2e latency then includes the queueing delay); shed or
         failed requests are dropped and the tenant moves on to its next
         scheduled arrival. *)
}

let default_config ?(mode = Colorguard) ?(workload = Workloads.Hash_balance)
    ?(faults = no_faults) ?(churn = false) ?(page_zero_ns = 0.0)
    ?(legacy_lifecycle = false) ?(overload = no_overload) ?engine ?(chaos = [])
    ?on_perturbation ?(fair_scheduling = false) ?flight () =
  {
    mode;
    workload;
    concurrency = 128;
    duration_ns = 20.0e6;
    io_mean_ns = 5.0e6;
    epoch_ns = 1.0e6;
    os_switch_ns = 5000.0;
    faults;
    seed = 0x5EEDL;
    churn;
    page_zero_ns;
    legacy_lifecycle;
    trace = Trace.null;
    flight;
    overload;
    engine;
    chaos;
    on_perturbation;
    fair_scheduling;
    arrivals = None;
  }

type tenant_stat = {
  t_id : int;
  t_completed : int;
  t_failed : int;
  t_shed : int;
  t_breaker_opens : int;
  t_breaker_state : string;
  t_p50_ns : float;
  t_p95_ns : float;
  t_p99_ns : float;
  t_p99_e2e_ns : float;
  t_sb_share : float;
  t_burn : float;
  t_lat_hist : Hist.t;
  t_e2e_hist : Hist.t;
}

type result = {
  completed : int;
  failed : int;
  watchdog_kills : int;
  collateral_aborts : int;
  recycles : int;
  pages_zeroed : int;
  admitted : int;
  shed_sojourn : int;
  shed_rate_limited : int;
  shed_queue_full : int;
  shed_priority : int;
  deadline_misses : int;
  breaker_opens : int;
  breaker_fast_fails : int;
  breakers_open_at_end : int;
  degrade_steps : int;
  max_degrade_level : int;
  chaos_applied : int;
  chaos_kills : int;
  slo_burn_starts : int;
  slo_burn_stops : int;
  slo_burning_at_end : int;
  throughput_rps : float;
  goodput_rps : float;
  availability : float;
  capacity_rps : float;
  context_switches : int;
  user_transitions : int;
  dtlb_misses : int;
  checksum : int64;
  simulated_ns : float;
  cpu_busy_ns : float;
  tenants : tenant_stat array;
}

type request = {
  id : int;
  proc : int;
  mutable inst : Runtime.instance option;
  mutable had_inst : bool; (* ever held a slot (recycle accounting) *)
  mutable ready_at : float;
  mutable arrived_at : float; (* when the current logical request arrived *)
  mutable parked : bool; (* ticket parked in the admission queue *)
  mutable bk_admitted : bool; (* breaker already admitted this request *)
  mutable act : Runtime.activation option;
  mutable seq : int; (* per-slot completion count, seeds the next request *)
  mutable started_at : float; (* sim time the current activation started *)
}

(* A server-class second-level dTLB (1536 entries, as on the paper's
   RaptorLake testbed) — large enough that ColorGuard's instances stay
   resident, which is exactly what process switching destroys. *)
let server_tlb =
  { Sfi_vmem.Tlb.entries = 1536; ways = 8; page_walk_levels = 4; walk_cycles_per_level = 5 }

let fresh_engines cfg m =
  match cfg.mode with
  | Multiprocess n ->
      if n < 1 then invalid_arg "Sim: process count must be >= 1";
      List.init n (fun _ ->
          let compiled = Codegen.compile (Codegen.default_config ()) m in
          Runtime.create_engine ~tlb:server_tlb ?engine:cfg.engine compiled)
  | Colorguard ->
      let params =
        {
          Pool.num_slots =
            (match cfg.overload.pool_slots with
            | Some n ->
                if n < 1 then invalid_arg "Sim: pool_slots must be >= 1";
                n
            | None -> cfg.concurrency);
          max_memory_bytes = 4 * Units.mib;
          expected_slot_bytes = 4 * Units.mib;
          guard_bytes = 32 * Units.mib;
          pre_guard_enabled = false;
          num_pkeys_available = Sfi_vmem.Mpk.max_usable_keys;
          stripe_enabled = true;
        }
      in
      let layout =
        (* Degrade stripes -> guards rather than refusing to serve when the
           striped layout is rejected (key budget, overflow). *)
        match Pool.compute_with_fallback params with
        | Ok (l, _status) -> l
        | Error msg -> invalid_arg ("Sim: pool layout: " ^ msg)
      in
      let compiled =
        Codegen.compile { (Codegen.default_config ()) with Codegen.colorguard = true } m
      in
      [
        Runtime.create_engine ~tlb:server_tlb ~allocator:(Runtime.Pool layout)
          ?engine:cfg.engine compiled;
      ]

let run cfg =
  let m = Workloads.module_of cfg.workload in
  let engines = Array.of_list (fresh_engines cfg m) in
  let nprocs = Array.length engines in
  let rng = Prng.create ~seed:cfg.seed in
  let ov = cfg.overload in
  (* Effective trace sink: the flight recorder taps the primary ring (or
     stands in for it on untraced runs). Everything below emits into
     [trace], never [cfg.trace] directly. *)
  let trace =
    match cfg.flight with
    | Some fr -> Flight.tap fr cfg.trace
    | None -> cfg.trace
  in
  (* Chaos draws its own PRNG stream so perturbation policy (victim
     choice, respawn delays) never perturbs the workload's stream. The
     stream is derived with [Prng.split] — an xor of the seed (the old
     derivation) leaves the child SplitMix64 state on the same
     golden-gamma lattice as the parent and the streams correlate, which
     breaks chaos determinism fingerprints once sharding multiplies the
     number of parallel consumers of one root seed. *)
  let chaos_rng = Prng.split rng 0 in
  let latency_until = ref 0.0 in
  let latency_factor = ref 1.0 in
  let io_delay () =
    (* "The value of the delay is drawn from a Poisson distribution at
       5ms": delays of a Poisson arrival process, i.e. exponential with a
       5 ms mean — "to model typical network request patterns". *)
    let d = Prng.exponential rng ~mean:cfg.io_mean_ns in
    if !latency_factor > 1.0 then d *. !latency_factor else d
  in
  Array.iter (fun e -> Runtime.set_admission e ov.admission) engines;
  if ov.admission <> None then
    (* Admission/breaker decisions are trace-worthy: route the engines'
       event streams into the sim's sink so Perfetto shows shed/grant
       markers on the tenant lanes. Legacy runs keep engine tracing off. *)
    Array.iter (fun e -> Runtime.set_trace e trace) engines;
  let breakers =
    match ov.breaker with
    | None -> None
    | Some bc ->
        Some
          (Array.init cfg.concurrency (fun id ->
               (* Per-tenant jitter streams, split from the root seed
                  (index 0 is the chaos stream). *)
               Breaker.create ~seed:(Prng.split_seed ~seed:cfg.seed (id + 1)) bc))
  in
  let f = cfg.faults in
  let has_faults = f.trap_rate > 0.0 || f.runaway_rate > 0.0 in
  (* With a slot pool smaller than the closed-loop population, slots are a
     contended resource acquired through admission; otherwise every
     request gets its instance up front (the historical behavior). *)
  let prewarm =
    match ov.pool_slots with None -> true | Some n -> n >= cfg.concurrency
  in
  (* Open-loop arrival schedules, one sorted queue per tenant. *)
  let open_loop = cfg.arrivals <> None in
  let arr_times =
    match cfg.arrivals with
    | None -> [||]
    | Some arr ->
        let per = Array.make cfg.concurrency [] in
        Array.iter
          (fun a ->
            if a.Workloads.tenant < 0 || a.Workloads.tenant >= cfg.concurrency
            then invalid_arg "Sim: arrival tenant out of range";
            per.(a.Workloads.tenant) <- a.Workloads.at_ns :: per.(a.Workloads.tenant))
          arr;
        Array.map (fun l -> Array.of_list (List.sort compare l)) per
  in
  let arr_next = Array.make (max 1 cfg.concurrency) 0 in
  let initial_arrival id =
    let q = arr_times.(id) in
    if Array.length q = 0 then infinity
    else begin
      arr_next.(id) <- 1;
      q.(0)
    end
  in
  let requests =
    Array.init cfg.concurrency (fun id ->
        let proc = id mod nprocs in
        let ready_at = if open_loop then initial_arrival id else io_delay () in
        {
          id;
          proc;
          inst = (if prewarm then Some (Runtime.instantiate engines.(proc)) else None);
          had_inst = prewarm;
          ready_at;
          arrived_at = ready_at;
          parked = false;
          bk_admitted = false;
          act = None;
          seq = 0;
          started_at = 0.0;
        })
  in
  (* Lifecycle cost model: instantiation / recycle work in OS pages, priced
     at [page_zero_ns] each (0.0 = free, the historical behavior). The CoW
     runtime pays the dirty pages its recycles actually dropped plus one
     privatized vmctx page per instantiate; [legacy_lifecycle] re-prices
     every instantiate as the pre-refactor runtime's O(min_pages) work — a
     whole-heap madvise plus a full data-segment rewrite. *)
  let heap_os_pages =
    match m.Sfi_wasm.Ast.memory with
    | Some mem ->
        mem.Sfi_wasm.Ast.min_pages * (Sfi_wasm.Ast.page_size / Sfi_vmem.Space.page_size)
    | None -> 0
  in
  let lifecycle_pages proc =
    let mt = Runtime.metrics engines.(proc) in
    let instantiates =
      mt.Runtime.m_instantiations_cold + mt.Runtime.m_instantiations_warm
    in
    if cfg.legacy_lifecycle then instantiates * 2 * heap_os_pages
    else mt.Runtime.m_pages_zeroed_on_recycle + instantiates
  in
  (* Startup instantiation is warm-up, not serving time: snapshot after the
     request array is built so only churn-driven lifecycle work is billed. *)
  let lifecycle_prev = Array.init nprocs lifecycle_pages in
  let cost = Machine.cost_model (Runtime.machine engines.(0)) in
  let cycles_of_ns ns = Cost.cycles_of_ns cost ns in
  let ns_of_cycles c = Cost.ns_of_cycles cost c in
  let epoch_fuel = cycles_of_ns cfg.epoch_ns in
  (* The watchdog deadline bounds every request, not only fault-injected
     runs: a runaway guest must be stopped even when the fault model is
     off (e.g. a chaos run or a deliberately misbehaving tenant). *)
  let deadline_fuel = Some (f.deadline_epochs * epoch_fuel) in
  let clock = ref 0.0 in
  let busy = ref 0.0 in
  (* Request spans run on the simulated clock, one trace track per request
     slot (= tenant), so a Perfetto load shows each tenant's activations as
     nested bars over sim time. *)
  Trace.set_clock trace (fun () -> int_of_float !clock);
  (* Move a slot on to its tenant's next logical request: the next
     scheduled arrival in open-loop mode (possibly already in the past —
     then it has been queueing and is immediately ready, with its e2e
     latency including the wait), or a fresh think-time arrival in the
     closed loop. *)
  let next_arrival r =
    let q = arr_times.(r.id) in
    let i = arr_next.(r.id) in
    if i >= Array.length q then begin
      r.ready_at <- infinity;
      r.arrived_at <- infinity
    end
    else begin
      arr_next.(r.id) <- i + 1;
      r.ready_at <- q.(i);
      r.arrived_at <- q.(i)
    end
  in
  (* [delay] draws the closed-loop think time (default: the workload's IO
     delay); it is only called in the closed loop, so an open-loop re-arm
     draws from no PRNG stream. *)
  let rearm ?(delay = io_delay) r =
    if open_loop then next_arrival r
    else begin
      r.ready_at <- !clock +. delay ();
      r.arrived_at <- r.ready_at
    end
  in
  let t_completed = Array.make cfg.concurrency 0 in
  let t_failed = Array.make cfg.concurrency 0 in
  let t_shed = Array.make cfg.concurrency 0 in
  let t_breaker_opens = Array.make cfg.concurrency 0 in
  let t_lat = Array.init cfg.concurrency (fun _ -> Hist.create ()) in
  let t_e2e = Array.init cfg.concurrency (fun _ -> Hist.create ()) in
  let t_sb = Array.make cfg.concurrency 0 in
  let t_instr = Array.make cfg.concurrency 0 in
  let completed = ref 0 in
  let failed = ref 0 in
  let watchdog_kills = ref 0 in
  let collateral = ref 0 in
  let recycles = ref 0 in
  let shed_sojourn = ref 0 in
  let shed_rate_limited = ref 0 in
  let shed_queue_full = ref 0 in
  let shed_priority = ref 0 in
  let deadline_misses = ref 0 in
  let breaker_opens = ref 0 in
  let breaker_fast_fails = ref 0 in
  let chaos_applied = ref 0 in
  let chaos_kills = ref 0 in
  let inst_fail_budget = ref 0 in
  let checksum = ref 0L in
  let context_switches = ref 0 in
  let current_proc = ref 0 in
  let slice_start = ref 0.0 in
  (* Hoisted out of the degradation section: the flight recorder's
     counter snapshot wants the current ladder level too. *)
  let ladder_level = ref 0 in
  let engine_cycles = Array.make nprocs 0 in
  (* Advance the global clock by the cycles an engine just spent. *)
  let charge proc =
    let c = (Machine.counters (Runtime.machine engines.(proc))).Machine.cycles in
    let delta = ns_of_cycles (c - engine_cycles.(proc)) in
    clock := !clock +. delta;
    busy := !busy +. delta;
    engine_cycles.(proc) <- c;
    if cfg.page_zero_ns > 0.0 then begin
      let w = lifecycle_pages proc in
      let dw = w - lifecycle_prev.(proc) in
      if dw > 0 then begin
        let ns = float_of_int dw *. cfg.page_zero_ns in
        clock := !clock +. ns;
        busy := !busy +. ns
      end;
      lifecycle_prev.(proc) <- w
    end
  in
  (* --- flight recorder: post-mortem freezes --- *)
  let flight_counters () =
    let fold f = Array.fold_left (fun acc e -> acc + f e) 0 engines in
    let mach f = fold (fun e -> f (Runtime.machine e)) in
    [
      ("clock_ns", !clock);
      ("completed", float_of_int !completed);
      ("failed", float_of_int !failed);
      ("watchdog_kills", float_of_int !watchdog_kills);
      ("collateral_aborts", float_of_int !collateral);
      ("recycles", float_of_int !recycles);
      ("shed_sojourn", float_of_int !shed_sojourn);
      ("shed_rate_limited", float_of_int !shed_rate_limited);
      ("shed_queue_full", float_of_int !shed_queue_full);
      ("shed_priority", float_of_int !shed_priority);
      ("breaker_opens", float_of_int !breaker_opens);
      ("breaker_fast_fails", float_of_int !breaker_fast_fails);
      ( "breakers_open",
        match breakers with
        | None -> 0.0
        | Some arr ->
            float_of_int
              (Array.fold_left
                 (fun acc b -> if Breaker.state b <> Breaker.Closed then acc + 1 else acc)
                 0 arr) );
      ("admission_waiting", float_of_int (fold Runtime.waiting));
      ("ladder_level", float_of_int !ladder_level);
      ("chaos_applied", float_of_int !chaos_applied);
      ("machine_cycles", float_of_int (mach (fun m -> (Machine.counters m).Machine.cycles)));
      ( "machine_instructions",
        float_of_int (mach (fun m -> (Machine.counters m).Machine.instructions)) );
      ("dtlb_misses", float_of_int (mach Machine.dtlb_misses));
      ("superblocks_retired", float_of_int (mach Machine.superblock_retired));
      ("transitions", float_of_int (fold Runtime.transitions));
    ]
  in
  let freeze_flight reason =
    match cfg.flight with
    | None -> ()
    | Some fr ->
        Flight.freeze fr ~reason ~at_ns:(int_of_float !clock)
          ~counters:(flight_counters ())
  in
  (* --- SLO burn-rate tracking --- *)
  let slo_burn_starts = ref 0 in
  let slo_burn_stops = ref 0 in
  let burning = ref 0 in
  let slos =
    match ov.slo with
    | None -> None
    | Some sc -> Some (sc, Array.init cfg.concurrency (fun _ -> Slo.create sc))
  in
  (* Edge-trigger a tenant's alerts: count transitions, track how many
     tenants are burning their fast window (the ladder's SLO-aware
     trigger), and emit the slo.burn_start/stop markers. *)
  let slo_transitions id s =
    List.iter
      (fun tr ->
        let burn_milli = int_of_float (tr.Slo.tr_burn *. 1000.0) in
        let window = match tr.Slo.tr_window with Slo.Fast -> 0 | Slo.Slow -> 1 in
        if tr.Slo.tr_started then begin
          incr slo_burn_starts;
          if tr.Slo.tr_window = Slo.Fast then incr burning;
          Trace.slo_burn_start trace ~tenant:id ~burn_milli ~window
        end
        else begin
          incr slo_burn_stops;
          if tr.Slo.tr_window = Slo.Fast then decr burning;
          Trace.slo_burn_stop trace ~tenant:id ~burn_milli ~window
        end)
      (Slo.evaluate s ~now:!clock)
  in
  let slo_record id ~good =
    match slos with
    | None -> ()
    | Some (_, arr) ->
        let s = arr.(id) in
        Slo.record s ~now:!clock ~good;
        slo_transitions id s
  in
  let slo_good lat =
    match slos with Some (sc, _) -> lat <= sc.Slo.latency_ns | None -> true
  in
  (* Which handler serves this request: deliberately misbehaving tenants
     (overload policy) crash-loop or spin on every request; otherwise the
     per-request fault model draws one with the configured probabilities. *)
  let draw_entry id =
    if List.mem id ov.crash_tenants then "misbehave_trap"
    else if List.mem id ov.runaway_tenants then "misbehave_spin"
    else if not has_faults then "handle"
    else begin
      let x = Prng.float rng 1.0 in
      if x < f.trap_rate then "misbehave_trap"
      else if x < f.trap_rate +. f.runaway_rate then "misbehave_spin"
      else "handle"
    end
  in
  (* --- circuit breakers: transition tracking + trace emission --- *)
  let note_breaker_transition id b prev =
    let st = Breaker.state b in
    if st <> prev then
      match st with
      | Breaker.Open ->
          incr breaker_opens;
          t_breaker_opens.(id) <- t_breaker_opens.(id) + 1;
          Trace.breaker_open trace ~tenant:id
            ~backoff:(int_of_float (Breaker.retry_at b -. !clock));
          freeze_flight "breaker.open"
      | Breaker.Half_open -> Trace.breaker_half_open trace ~tenant:id
      | Breaker.Closed -> Trace.breaker_close trace ~tenant:id
  in
  let with_breaker id fn =
    match breakers with
    | None -> ()
    | Some arr ->
        let b = arr.(id) in
        let prev = Breaker.state b in
        fn b;
        note_breaker_transition id b prev
  in
  (* May tenant [id]'s next request proceed? An open breaker fast-fails it
     without touching the pool; the refusal parks the request until the
     breaker's next probe time. Fast-fails are not serving failures — the
     request never entered service — so they are counted separately. The
     breaker is consulted once per logical request ([bk_admitted]): a
     request it admitted that then waits on admission or a transient
     instantiate failure is not re-asked — in particular a half-open
     probe delayed that way must not fast-fail its own tenant forever. *)
  let breaker_allow r =
    match breakers with
    | None -> true
    | Some arr ->
        let b = arr.(r.id) in
        let prev = Breaker.state b in
        let ok = Breaker.allow b ~now:!clock in
        note_breaker_transition r.id b prev;
        if ok then r.bk_admitted <- true
        else begin
          incr breaker_fast_fails;
          r.ready_at <-
            (match Breaker.state b with
            | Breaker.Open -> Float.max (Breaker.retry_at b) (!clock +. cfg.epoch_ns)
            | _ -> !clock +. cfg.epoch_ns)
        end;
        ok
  in
  (* --- graceful-degradation ladder ([ladder_level] hoisted above) --- *)
  let degrade_steps = ref 0 in
  let max_degrade_level = ref 0 in
  let hedged = ref ov.hedged_retries in
  let window_len = 4.0 *. cfg.epoch_ns in
  let window_end = ref window_len in
  let window_sheds = ref 0 in
  let over_windows = ref 0 in
  let calm_windows = ref 0 in
  let apply_level lvl =
    ladder_level := lvl;
    max_degrade_level := max !max_degrade_level lvl;
    incr degrade_steps;
    (* L1: tighten admission and keep recycle headroom. L2: + stop hedging
       failed requests. L3 additionally sheds low-priority arrivals (in
       [run_request]). Stepping down unwinds in the same order. *)
    let pressure = if lvl >= 1 then 0.5 else 1.0 in
    Array.iter
      (fun e ->
        Runtime.set_admission_pressure e pressure;
        let slots = Runtime.num_slots e in
        let reserve = if lvl >= 1 then min (slots - 1) (max 1 (slots / 8)) else 0 in
        Runtime.set_slot_reserve e reserve)
      engines;
    hedged := ov.hedged_retries && lvl < 2;
    Trace.degrade_step trace ~level:lvl
  in
  let ladder_tick () =
    if ov.degradation && !clock >= !window_end then begin
      (* Re-evaluate burn-rate alerts at every window boundary so alerts
         also clear while a tenant is idle (its windows slide empty). *)
      (match slos with
      | Some (_, arr) -> Array.iteri slo_transitions arr
      | None -> ());
      (* SLO-aware trigger: shedding starts when any tenant is burning
         its fast error-budget window, not only on queue sojourn. *)
      let overloaded = !window_sheds > 0 || !burning > 0 in
      window_sheds := 0;
      while !window_end <= !clock do
        window_end := !window_end +. window_len
      done;
      if overloaded then begin
        incr over_windows;
        calm_windows := 0
      end
      else begin
        incr calm_windows;
        over_windows := 0
      end;
      if !over_windows >= 2 && !ladder_level < 3 then begin
        over_windows := 0;
        apply_level (!ladder_level + 1)
      end
      else if !calm_windows >= 2 && !ladder_level > 0 then begin
        calm_windows := 0;
        apply_level (!ladder_level - 1)
      end
    end
  in
  (* The client behind a shed ticket gives up and issues a fresh request
     later; a half-open breaker whose probe was shed re-opens. *)
  let note_shed r reason =
    t_shed.(r.id) <- t_shed.(r.id) + 1;
    slo_record r.id ~good:false;
    (match reason with
    | Runtime.Shed_sojourn ->
        incr shed_sojourn;
        incr window_sheds
    | Runtime.Shed_rate_limited -> incr shed_rate_limited
    | Runtime.Shed_queue_full ->
        incr shed_queue_full;
        incr window_sheds);
    (match breakers with
    | Some arr when Breaker.state arr.(r.id) = Breaker.Half_open ->
        with_breaker r.id (Breaker.on_failure ~now:!clock)
    | _ -> ());
    r.parked <- false;
    r.bk_admitted <- false;
    rearm r
  in
  (* Crash recovery / slot acquisition: get a slot through the engine's
     admission queue (plain FIFO, plus the CoDel controller when armed).
     Returns false while the request must wait or was shed. *)
  let ensure_instance r =
    match r.inst with
    | Some i when Runtime.live i -> true
    | _ ->
        if !inst_fail_budget > 0 then begin
          (* Chaos: transient instantiate failure — behaves like a full
             pool; the request retries next epoch. *)
          decr inst_fail_budget;
          r.ready_at <- !clock +. cfg.epoch_ns;
          false
        end
        else begin
          match Runtime.admit engines.(r.proc) ~ticket:r.id ~tenant:r.id ~now:!clock with
          | `Ready inst ->
              if r.had_inst then incr recycles;
              r.had_inst <- true;
              r.parked <- false;
              r.inst <- Some inst;
              true
          | `Wait ->
              if ov.admission <> None then r.parked <- true;
              r.ready_at <- !clock +. cfg.epoch_ns;
              false
          | `Shed reason ->
              if ov.admission = None then begin
                (* Full queue with no controller: keep the historical epoch
                   retry (and its PRNG stream) byte-for-byte. *)
                r.ready_at <- !clock +. cfg.epoch_ns;
                false
              end
              else begin
                note_shed r reason;
                false
              end
        end
  in
  (* Blast radius of a crash. Under multiprocess scaling a trap is a process
     death: every co-resident instance dies and its in-flight request is
     aborted. Under ColorGuard only the faulting instance is torn down. *)
  let crash_process proc ~except =
    Array.iter
      (fun r2 ->
        if r2.proc = proc && r2.id <> except then begin
          if r2.act <> None then begin
            incr collateral;
            t_failed.(r2.id) <- t_failed.(r2.id) + 1;
            slo_record r2.id ~good:false;
            Trace.request_end trace ~tenant:r2.id ~ok:false;
            r2.act <- None
          end;
          (match r2.inst with
          | Some i when Runtime.live i -> Runtime.kill i
          | _ -> ());
          r2.ready_at <- !clock +. f.respawn_ns
        end)
      requests;
    clock := !clock +. f.respawn_ns;
    busy := !busy +. f.respawn_ns
  in
  (* The one bookkeeping path of a failed in-flight request (trap,
     watchdog, dead instance, chaos kill): the caller re-arms it. *)
  let fail r =
    incr failed;
    t_failed.(r.id) <- t_failed.(r.id) + 1;
    slo_record r.id ~good:false;
    Trace.request_end trace ~tenant:r.id ~ok:false;
    with_breaker r.id (Breaker.on_failure ~now:!clock);
    r.act <- None;
    r.seq <- r.seq + 1;
    r.bk_admitted <- false
  in
  let fail_request r ~is_crash =
    fail r;
    freeze_flight "fault";
    (match cfg.mode with
    | Multiprocess _ when is_crash -> crash_process r.proc ~except:r.id
    | _ -> ());
    (* Hedged retry (until the ladder downgrades it at L2): resubmit the
       failed request next epoch instead of after a full IO round-trip.
       Open loop: the failed request is dropped and the tenant moves on
       to its next scheduled arrival. *)
    if !hedged then rearm ~delay:(fun () -> cfg.epoch_ns) r else rearm r
  in
  let run_request r =
    if
      !ladder_level >= 3 && r.act = None && (not r.parked) && ov.low_priority r.id
    then begin
      (* L3: shed low-priority arrivals outright. Reason code 3 in the
         trace = priority shed (the runtime codes cover 0-2). *)
      incr shed_priority;
      t_shed.(r.id) <- t_shed.(r.id) + 1;
      slo_record r.id ~good:false;
      Trace.admission_shed trace ~tenant:r.id ~sojourn:0 ~reason:3;
      r.bk_admitted <- false;
      rearm r
    end
    else if r.act <> None || r.parked || r.bk_admitted || breaker_allow r then begin
      if ensure_instance r then begin
        let inst = match r.inst with Some i -> i | None -> assert false in
        let arrival = r.arrived_at in
        let completed_now = ref false in
        let act =
          match r.act with
          | Some a -> a
          | None ->
              let seed = Int64.of_int (1 + r.id + (r.seq * 8191)) in
              let a = Runtime.start_call ?deadline_fuel inst (draw_entry r.id) [ seed ] in
              r.act <- Some a;
              r.started_at <- !clock;
              Trace.request_begin trace ~tenant:r.id;
              a
        in
        (* Tenant-attributed superblock occupancy: the engine's counters are
           monotonic across requests, so per-slice deltas sum cleanly even
           when the instance is killed or recycled mid-request. *)
        let mach = Runtime.machine engines.(r.proc) in
        let sb0 = Machine.superblock_retired mach in
        let in0 = (Machine.counters mach).Machine.instructions in
        (match Runtime.step act ~fuel:epoch_fuel with
        | `Done v ->
            incr completed;
            checksum := Int64.add !checksum (Int64.logand v 0xFFFFFFFFL);
            completed_now := true;
            r.act <- None;
            r.seq <- r.seq + 1;
            (* High-churn mode: every request runs on a fresh instance, the
               §6.4.3 FaaS pattern. Release recycles the slot (dirty pages
               revert to the image); the next request re-instantiates. *)
            if cfg.churn then Runtime.release inst;
            r.bk_admitted <- false;
            rearm r
        | `Trapped _ ->
            (* The sandbox crashed; Runtime.step already killed the instance
               and recycled its slot. The request failed — count it, never
               abort the simulation. *)
            fail_request r ~is_crash:true
        | `Fault Runtime.Fuel_exhausted ->
            (* Watchdog kill: runaway loop exceeded its deadline. *)
            incr watchdog_kills;
            fail_request r ~is_crash:false
        | `Fault _ ->
            (* Instance died under us (e.g. collateral of a neighbour's
               crash); retry on a fresh instance. *)
            fail_request r ~is_crash:false
        | `More -> () (* preempted; stays ready *));
        t_sb.(r.id) <- t_sb.(r.id) + (Machine.superblock_retired mach - sb0);
        t_instr.(r.id) <-
          t_instr.(r.id) + ((Machine.counters mach).Machine.instructions - in0);
        charge r.proc;
        (* Latency is measured after [charge] so it includes the execution
           time the engine just billed; the failure paths above keep their
           pre-charge timestamps (ready_at, respawn) unchanged. *)
        if !completed_now then begin
          t_completed.(r.id) <- t_completed.(r.id) + 1;
          let lat = !clock -. r.started_at in
          let e2e = !clock -. arrival in
          (match ov.request_deadline_ns with
          | Some d when e2e > d -> incr deadline_misses
          | _ -> ());
          with_breaker r.id (fun b ->
              Breaker.on_slow b ~now:!clock ~elapsed_ns:lat);
          Trace.request_end trace ~tenant:r.id ~ok:true;
          (* The exemplar points at the request-end event just stored, so
             a percentile spike links to the exact span in the export. *)
          Hist.record_exemplar t_lat.(r.id) lat
            ~index:(max 0 (Trace.length trace - 1));
          Hist.record t_e2e.(r.id) e2e;
          slo_record r.id ~good:(slo_good lat)
        end
      end
    end
  in
  (* --- chaos: seeded perturbations applied to the live run --- *)
  let chaos_pending =
    ref (List.sort (fun a b -> compare a.at_ns b.at_ns) cfg.chaos)
  in
  let next_chaos_time () =
    match !chaos_pending with ev :: _ -> ev.at_ns | [] -> infinity
  in
  let chaos_index = ref 0 in
  let apply_chaos ev =
    let victim = ref (-1) in
    (match ev.action with
    | Chaos_kill -> (
        (* Kill a random in-flight instance: the victim's request fails
           (attributed to the victim alone — that's the blast-radius
           invariant the harness checks) and the slot recycles. *)
        let candidates =
          Array.to_list requests
          |> List.filter (fun r ->
                 r.act <> None
                 && match r.inst with Some i -> Runtime.live i | None -> false)
        in
        match candidates with
        | [] -> ()
        | l ->
            let r = List.nth l (Prng.int chaos_rng (List.length l)) in
            victim := r.id;
            incr chaos_kills;
            fail r;
            (match r.inst with
            | Some i when Runtime.live i -> Runtime.kill i
            | _ -> ());
            rearm ~delay:(fun () -> Prng.exponential chaos_rng ~mean:cfg.io_mean_ns) r)
    | Chaos_latency { factor; window_ns } ->
        latency_factor := factor;
        latency_until := !clock +. window_ns
    | Chaos_instantiate_fail n -> inst_fail_budget := !inst_fail_budget + n);
    incr chaos_applied;
    freeze_flight
      (match ev.action with
      | Chaos_kill -> "chaos.kill"
      | Chaos_latency _ -> "chaos.latency"
      | Chaos_instantiate_fail _ -> "chaos.instantiate_fail");
    (match cfg.on_perturbation with
    | Some fn ->
        fn
          {
            cr_index = !chaos_index;
            cr_at_ns = ev.at_ns;
            cr_action = ev.action;
            cr_victim = !victim;
            cr_failed = Array.copy t_failed;
          }
    | None -> ());
    incr chaos_index
  in
  let chaos_tick () =
    if !latency_until > 0.0 && !clock >= !latency_until then begin
      latency_factor := 1.0;
      latency_until := 0.0
    end;
    let rec drain () =
      match !chaos_pending with
      | ev :: rest when ev.at_ns <= !clock ->
          chaos_pending := rest;
          apply_chaos ev;
          drain ()
      | _ -> ()
    in
    drain ()
  in
  (* Scheduler. The legacy scan picks the lowest-index ready request, so a
     started request runs to completion before anything behind it starts:
     slots are barely contended and overload shows up as silent starvation
     of high-index tenants. [fair_scheduling] switches to a round-robin
     cursor (processor sharing): every ready request gets an epoch in
     turn, in-flight requests hold their slots across preemption, and
     excess demand queues at admission — the regime the overload stack is
     built for. Off by default to keep earlier figures reproducible. Both
     are one scan: the legacy scheduler is a round robin whose cursor stays
     at 0. Deleting it needs a benchmark change, since the serving
     benchmark sets [fair_scheduling] explicitly. *)
  let rr_cursor = ref 0 in
  let n_requests = Array.length requests in
  let ready_in proc =
    let found = ref None in
    let i = ref 0 in
    while !found = None && !i < n_requests do
      let k = (!rr_cursor + !i) mod n_requests in
      let r = requests.(k) in
      if (proc < 0 || r.proc = proc) && r.ready_at <= !clock then begin
        found := Some r;
        if cfg.fair_scheduling then rr_cursor := (k + 1) mod n_requests
      end;
      incr i
    done;
    !found
  in
  let next_ready_time () =
    Array.fold_left (fun acc r -> min acc r.ready_at) infinity requests
  in
  let switch_to proc =
    incr context_switches;
    clock := !clock +. cfg.os_switch_ns;
    busy := !busy +. cfg.os_switch_ns;
    (* The incoming process finds the shared TLB polluted by whoever ran in
       between: model as a flush of its TLB state. *)
    Machine.flush_tlb (Runtime.machine engines.(proc));
    current_proc := proc;
    slice_start := !clock
  in
  let idle_jump () =
    clock :=
      max !clock (min (min (next_ready_time ()) (next_chaos_time ())) cfg.duration_ns)
  in
  while !clock < cfg.duration_ns do
    chaos_tick ();
    ladder_tick ();
    match cfg.mode with
    | Colorguard -> (
        match ready_in (-1) with Some r -> run_request r | None -> idle_jump ())
    | Multiprocess _ -> (
        (* A timeslice expires: move on if someone else has work. *)
        let other_with_work () =
          let found = ref None in
          for k = 1 to nprocs - 1 do
            let p = (!current_proc + k) mod nprocs in
            if !found = None && ready_in p <> None then found := Some p
          done;
          !found
        in
        if !clock -. !slice_start >= cfg.epoch_ns then begin
          match other_with_work () with
          | Some p -> switch_to p
          | None -> slice_start := !clock
        end;
        match ready_in !current_proc with
        | Some r -> run_request r
        | None -> (
            match other_with_work () with
            | Some p -> switch_to p
            | None -> idle_jump ()))
  done;
  (* Balance the trace: activations still in flight when the simulated
     duration expires get their span closed (not counted as failures). *)
  Array.iter
    (fun r -> if r.act <> None then Trace.request_end trace ~tenant:r.id ~ok:false)
    requests;
  (* Final burn-rate sweep so [slo_burning_at_end] reflects the stream's
     last state, then stamp the ring's fingerprint into the exemplars. *)
  (match slos with
  | Some (_, arr) -> Array.iteri slo_transitions arr
  | None -> ());
  if Trace.enabled trace then begin
    let fp = Trace.fingerprint trace in
    Array.iter (fun h -> Hist.seal_exemplars h fp) t_lat
  end;
  let tenants =
    Array.init cfg.concurrency (fun id ->
        let lat = t_lat.(id) in
        let pct h p = if Hist.count h = 0 then 0.0 else Hist.percentile h p in
        let e2e = t_e2e.(id) in
        {
          t_id = id;
          t_completed = t_completed.(id);
          t_failed = t_failed.(id);
          t_shed = t_shed.(id);
          t_breaker_opens = t_breaker_opens.(id);
          t_breaker_state =
            (match breakers with
            | None -> "-"
            | Some arr -> Breaker.state_name (Breaker.state arr.(id)));
          t_p50_ns = pct lat 50.0;
          t_p95_ns = pct lat 95.0;
          t_p99_ns = pct lat 99.0;
          t_p99_e2e_ns = pct e2e 99.0;
          t_sb_share =
            (if t_instr.(id) = 0 then 0.0
             else float_of_int t_sb.(id) /. float_of_int t_instr.(id));
          t_burn =
            (match slos with
            | Some (_, arr) -> Slo.burn arr.(id) ~now:!clock Slo.Fast
            | None -> 0.0);
          t_lat_hist = lat;
          t_e2e_hist = e2e;
        })
  in
  let breakers_open_at_end =
    match breakers with
    | None -> 0
    | Some arr ->
        Array.fold_left
          (fun acc b -> if Breaker.state b <> Breaker.Closed then acc + 1 else acc)
          0 arr
  in
  let admitted =
    Array.fold_left
      (fun acc e -> acc + (Runtime.metrics e).Runtime.m_admitted)
      0 engines
  in
  let user_transitions =
    Array.fold_left (fun acc e -> acc + Runtime.transitions e) 0 engines
  in
  let dtlb_misses =
    Array.fold_left (fun acc e -> acc + Machine.dtlb_misses (Runtime.machine e)) 0 engines
  in
  let attempts = !completed + !failed + !collateral in
  let pages_zeroed =
    Array.fold_left
      (fun acc e -> acc + (Runtime.metrics e).Runtime.m_pages_zeroed_on_recycle)
      0 engines
  in
  {
    completed = !completed;
    failed = !failed;
    watchdog_kills = !watchdog_kills;
    collateral_aborts = !collateral;
    recycles = !recycles;
    pages_zeroed;
    admitted;
    shed_sojourn = !shed_sojourn;
    shed_rate_limited = !shed_rate_limited;
    shed_queue_full = !shed_queue_full;
    shed_priority = !shed_priority;
    deadline_misses = !deadline_misses;
    breaker_opens = !breaker_opens;
    breaker_fast_fails = !breaker_fast_fails;
    breakers_open_at_end;
    degrade_steps = !degrade_steps;
    max_degrade_level = !max_degrade_level;
    chaos_applied = !chaos_applied;
    chaos_kills = !chaos_kills;
    slo_burn_starts = !slo_burn_starts;
    slo_burn_stops = !slo_burn_stops;
    slo_burning_at_end = !burning;
    throughput_rps = float_of_int attempts /. (!clock /. 1.0e9);
    goodput_rps = float_of_int (!completed - !deadline_misses) /. (!clock /. 1.0e9);
    availability =
      (if attempts = 0 then 1.0 else float_of_int !completed /. float_of_int attempts);
    capacity_rps = float_of_int !completed /. (!busy /. 1.0e9);
    context_switches = !context_switches;
    user_transitions;
    dtlb_misses;
    checksum = !checksum;
    simulated_ns = !clock;
    cpu_busy_ns = !busy;
    tenants;
  }

let throughput_gain ~workload ~processes cfg =
  (* Capacity per core-second: below CPU saturation both strategies finish
     the same IO-bound load, but multiprocess scaling burns core time on
     process switches and cold TLBs — time that at scale would have served
     additional requests. This is the per-core efficiency Figure 6 reports. *)
  let cg = run { cfg with mode = Colorguard; workload } in
  let mp = run { cfg with mode = Multiprocess processes; workload } in
  (cg.capacity_rps -. mp.capacity_rps) /. mp.capacity_rps *. 100.0

let degraded_mode ~workload ~processes ~trap_rate cfg =
  (* The Fig. 6 comparison re-run with misbehaving tenants: same load, same
     fault rate, two isolation strategies. ColorGuard pays one instance per
     crash; multiprocess loses every co-resident in-flight request. *)
  let faults = { cfg.faults with trap_rate } in
  let cg = run { cfg with mode = Colorguard; workload; faults } in
  let mp = run { cfg with mode = Multiprocess processes; workload; faults } in
  (cg, mp)

(* The `sfi top` table formats live here so the golden-output test can pin
   the column alignment without shelling out to the binary. *)
let top_header ~breakers =
  if breakers then
    Printf.sprintf "%6s %8s %6s %6s %8s %10s %7s %10s %10s %10s %6s" "TENANT" "OK"
      "FAIL" "SHED" "BRKOPEN" "BRK" "BURN" "P50(ms)" "P95(ms)" "P99(ms)" "SB%"
  else
    Printf.sprintf "%6s %8s %6s %10s %10s %10s %6s" "TENANT" "OK" "FAIL" "P50(ms)"
      "P95(ms)" "P99(ms)" "SB%"

let top_row ~breakers t =
  if breakers then
    Printf.sprintf "%6d %8d %6d %6d %8d %10s %7.2f %10.2f %10.2f %10.2f %5.1f%%"
      t.t_id t.t_completed t.t_failed t.t_shed t.t_breaker_opens t.t_breaker_state
      t.t_burn (t.t_p50_ns /. 1e6) (t.t_p95_ns /. 1e6) (t.t_p99_ns /. 1e6)
      (100.0 *. t.t_sb_share)
  else
    Printf.sprintf "%6d %8d %6d %10.2f %10.2f %10.2f %5.1f%%" t.t_id t.t_completed
      t.t_failed (t.t_p50_ns /. 1e6) (t.t_p95_ns /. 1e6) (t.t_p99_ns /. 1e6)
      (100.0 *. t.t_sb_share)
