(* kernel-resident and kernel-thrash: benchmark kernels compiled once,
   then invoked over and over on fresh engines in seeded shuffled order. *)

module Kernel = Sfi_workloads.Kernel
module Codegen = Sfi_core.Codegen
module Runtime = Sfi_runtime.Runtime
module Machine = Sfi_machine.Machine
module W = Sfi_wasm.Ast
module Prng = Sfi_util.Prng

type workload = Resident | Thrash

(* Membership is decided by measured properties, never by name: every
   Sightglass, PolyBench, SPEC 2006 and SPEC 2017 kernel whose segue run
   retires at most [max_instructions] and whose modelled miss rates put
   it in the class ([in_class]). The lists are that selection; every run
   re-checks the rule. *)
let members = function
  | Resident ->
      Sfi_workloads.Sightglass.[ fib2; gimli; nestedloop3 ]
      @ Sfi_workloads.Spec2006.[ namd; gobmk; sjeng ]
      @ Sfi_workloads.Spec2017.[ namd_r; deepsjeng; nab ]
  | Thrash -> Sfi_workloads.Spec2006.[ mcf; milc ] @ Sfi_workloads.Spec2017.[ gcc; mcf_r ]

let max_instructions = function Resident -> 3_500_000 | Thrash -> 8_000_000

let in_class w ~dtlb_pk ~dcache_pk =
  match w with
  | Resident -> dtlb_pk < 0.05 && dcache_pk < 0.2
  | Thrash -> dtlb_pk >= 1.0 || dcache_pk >= 5.0

type pair = {
  kernel : Kernel.t;
  sname : string;  (** "segue", "basereg" or "native" *)
  compiled : Codegen.compiled;
  i32 : bool;  (** the entry returns an i32: compare the low 32 bits *)
}

(* Round 0 runs every strategy; later rounds only the two the workload
   measures, native having supplied the cycle denominator. *)
let measured p = p.sname <> "native"
let key p = (p.kernel.Kernel.name, p.sname)

let module_for (k : Kernel.t) (s : Sfi_core.Strategy.t) =
  match (s.addressing, k.native) with
  | Sfi_core.Strategy.Direct, Some native -> Lazy.force native
  | _ -> Lazy.force k.wasm

(* The kernel's result under the reference Wasm interpreter: the oracle
   every invocation must match, since the registry kernels carry no
   checksum of their own. *)
let reference_result (k : Kernel.t) =
  let m = Lazy.force k.wasm in
  let ty = W.type_of_func m (W.func_index_of_export m k.entry) in
  let arg t a = match t with W.I32 -> W.V_i32 (Int64.to_int32 a) | W.I64 -> W.V_i64 a in
  let inst = Sfi_wasm.Interp.instantiate m in
  match Sfi_wasm.Interp.invoke inst k.entry (List.map2 arg ty.params k.args) with
  | Ok [ W.V_i32 v ] -> Int64.logand (Int64.of_int32 v) 0xFFFFFFFFL
  | Ok [ W.V_i64 v ] -> v
  | Ok _ | Error _ -> failwith (k.name ^ ": the reference interpreter gave no result")

let setup spans kernels =
  List.concat_map
    (fun (k : Kernel.t) ->
      List.map
        (fun (sname, strategy) ->
          let m =
            Span.record spans ~cat:"lifecycle" "workloads.kernel.module" (fun () ->
                module_for k strategy)
          in
          let compiled =
            Span.record spans ~cat:"lifecycle" "core.codegen.compile" (fun () ->
                Codegen.compile (Codegen.default_config ~strategy ()) m)
          in
          ignore
            (Span.record spans ~cat:"lifecycle" "runtime.create_engine" (fun () ->
                 Runtime.create_engine compiled));
          let i32 = (W.type_of_func m (W.func_index_of_export m k.entry)).W.results = [ W.I32 ] in
          { kernel = k; sname; compiled; i32 })
        Ledger.strategies)
    kernels

let setups = 15

(* Set up [setups] times; report the median, keep the last. *)
let timed_setup spans kernels =
  let costs = ref [] and last = ref [] in
  for i = 1 to setups do
    Span.set_iter spans (-i);
    let pairs, c =
      Meter.measure (fun () ->
          Span.record spans ~cat:"lifecycle" "setup" (fun () -> setup spans kernels))
    in
    costs := c.Meter.ns :: !costs;
    last := pairs
  done;
  (Meter.median !costs /. 1e9, !last)

(* --- invocations --------------------------------------------------------- *)

type run = {
  ok : bool;
  cost : Meter.cost;
  counters : Machine.counters;
  dtlb : int;
  dcache : int;
  sim_ns : float;
  result : int64 option;
  tier : Machine.tier_stats;
}

(* What Kernel.run does after compiling: a fresh engine (translation),
   an instance, the call, and the checksum check. *)
let invoke spans p =
  let k = p.kernel in
  let (outcome, engine), cost =
    Meter.measure (fun () ->
        Span.record spans ~cat:"request" "kernel.invocation" (fun () ->
            let engine =
              Span.record spans ~cat:"lifecycle" "runtime.create_engine" (fun () ->
                  Runtime.create_engine p.compiled)
            in
            let inst =
              Span.record spans ~cat:"lifecycle" "runtime.instantiate" (fun () ->
                  Runtime.instantiate engine)
            in
            let outcome =
              Span.record spans ~cat:"transition" "runtime.invoke" (fun () ->
                  Runtime.invoke inst k.entry k.args)
            in
            (outcome, engine)))
  in
  let mach = Runtime.machine engine in
  let result =
    match outcome with
    | Ok raw -> Some (if p.i32 then Int64.logand raw 0xFFFFFFFFL else raw)
    | Error _ -> None
  in
  let ok =
    match result with
    | Some r -> Option.fold ~none:true ~some:(Int64.equal r) k.checksum
    | None -> false
  in
  {
    ok;
    cost;
    counters = Machine.counters mach;
    dtlb = Machine.dtlb_misses mach;
    dcache = Machine.dcache_misses mach;
    sim_ns = Machine.elapsed_ns mach;
    result;
    tier = Machine.tier_stats mach;
  }

(* Each pair's first run: its simulation, and its allocation after round 0. *)
type firsts = { sim : (string * string, run) Hashtbl.t; words : (string * string, float) Hashtbl.t }

let firsts () = { sim = Hashtbl.create 64; words = Hashtbl.create 64 }

let same_simulation a b =
  a.result = b.result && a.counters = b.counters && a.dtlb = b.dtlb && a.dcache = b.dcache
  && a.tier = b.tier

(* One round: every pair once, in an order drawn from the seed. Each run
   must repeat the simulation of the pair's first run bit-exactly and,
   with [check_words], the allocation of its first run after round 0
   (round 0 also pays one-time allocation). *)
let run_round ?(spans = Span.disabled) ~check_words report ~seed ~round ~first pairs =
  Span.set_iter spans round;
  let order = Array.of_list pairs in
  Prng.shuffle (Prng.create ~seed:(Prng.split_seed ~seed round)) order;
  Array.to_list
    (Array.map
       (fun p ->
         let r = invoke spans p in
         let name = Printf.sprintf "%s/%s" p.kernel.Kernel.name p.sname in
         Report.attempt report ~ok:r.ok;
         Report.check report r.ok "%s: trapped or missed its checksum" name;
         (match Hashtbl.find_opt first.sim (key p) with
         | None -> Hashtbl.replace first.sim (key p) r
         | Some r0 ->
             Report.check report (same_simulation r0 r)
               "%s: simulated counters differ on repeat (round %d)" name round);
         (if check_words && round > 0 then
            match Hashtbl.find_opt first.words (key p) with
            | None -> Hashtbl.replace first.words (key p) r.cost.Meter.words
            | Some w ->
                Report.check report (w = r.cost.Meter.words)
                  "%s: minor words differ on repeat (%.0f vs %.0f)" name w r.cost.Meter.words);
         (p, r))
       order)

(* Every completed invocation against the reference interpreter, run once
   per kernel after measurement so the interpreter's memory stays out of
   peak_heap_mb. *)
let check_results report runs =
  let expected = Hashtbl.create 16 in
  let oracle (k : Kernel.t) =
    match Hashtbl.find_opt expected k.name with
    | Some e -> e
    | None ->
        let e = reference_result k in
        Hashtbl.replace expected k.name e;
        e
  in
  let wrong = List.filter (fun (p, r) -> r.ok && r.result <> Some (oracle p.kernel)) runs in
  Report.attempt_many report ~n:0 ~failed:(List.length wrong);
  List.sort_uniq compare (List.map (fun (p, _) -> key p) wrong)
  |> List.iter (fun (k, s) ->
         Report.check report false "%s/%s: result differs from the reference interpreter" k s)

let per_kilo n d = 1000.0 *. float_of_int n /. float_of_int d

(* Check the membership rule and print the per-kernel table. *)
let check_members report w round0 =
  let find k s = List.find (fun (p, _) -> p.kernel == k && p.sname = s) round0 |> snd in
  Report.note "%-16s %9s %8s %9s %8s %8s" "kernel" "Minstr" "dtlb/k" "dcache/k" "seg/nat"
    "base/nat";
  List.iter
    (fun k ->
      let seg = find k "segue" and base = find k "basereg" and nat = find k "native" in
      let rate r =
        (per_kilo r.dtlb r.counters.instructions, per_kilo r.dcache r.counters.instructions)
      in
      let d, c = rate seg in
      let cyc r = float_of_int r.counters.cycles in
      Report.note "%-16s %9.3f %8.3f %9.3f %8.4f %8.4f" k.Kernel.name
        (float_of_int seg.counters.instructions /. 1e6)
        d c (cyc seg /. cyc nat) (cyc base /. cyc nat);
      List.iter
        (fun (s, r) ->
          let dtlb_pk, dcache_pk = rate r in
          Report.check report
            (in_class w ~dtlb_pk ~dcache_pk)
            "%s/%s: miss rates (%.3f dTLB, %.3f dcache per kinstr) outside the workload's class"
            k.Kernel.name s dtlb_pk dcache_pk)
        [ ("segue", seg); ("basereg", base) ];
      Report.check report
        (seg.counters.instructions <= max_instructions w)
        "%s: %d instructions exceed the workload's size cap" k.Kernel.name
        seg.counters.instructions)
    (members w)

let cycle_ratio round0 s =
  let cycles k s' =
    List.find (fun (p, _) -> p.kernel.Kernel.name = k && p.sname = s') round0
    |> fun (_, r) -> float_of_int r.counters.cycles
  in
  round0
  |> List.filter (fun (p, _) -> p.sname = s)
  |> List.map (fun (p, _) -> cycles p.kernel.Kernel.name s /. cycles p.kernel.Kernel.name "native")
  |> Sfi_util.Stats.geomean

(* --- end to end ---------------------------------------------------------- *)

let e2e report w ~seed ~seconds =
  let setup_s, pairs = timed_setup Span.disabled (members w) in
  let first = firsts () in
  let start = Meter.now_s () in
  let round0 = run_round ~check_words:true report ~seed ~round:0 ~first pairs in
  check_members report w round0;
  let mpairs = List.filter measured pairs in
  let later = ref [] and round = ref 1 in
  while Meter.elapsed_s start < seconds || List.length !later < 2 do
    later := run_round ~check_words:true report ~seed ~round:!round ~first mpairs :: !later;
    incr round
  done;
  let rounds = List.map (List.map snd) !later in
  let runs = List.concat rounds in
  let n = float_of_int (List.length runs) in
  let words = Meter.sum (List.map (fun r -> r.cost.Meter.words) runs) in
  let instructions r = float_of_int r.counters.instructions in
  let instr = Meter.sum (List.map instructions runs) in
  let ns = Meter.sum (List.map (fun r -> r.cost.Meter.ns) runs) in
  let per_instr = List.map (fun r -> r.cost.Meter.ns /. instructions r) runs in
  (* Simulated latency of one invocation of each measured pair. *)
  let sim_us =
    List.filter (fun (p, _) -> measured p) round0 |> List.map (fun (_, r) -> r.sim_ns /. 1e3)
  in
  let add ?scale = Report.add ?scale report in
  add ~scale:Time "setup_s" "s" setup_s;
  add "peak_heap_mb" "MiB" (Meter.peak_heap_mib ());
  add ~scale:Rate "sim_mips" "Minstr/s" (instr /. ns *. 1e3);
  add ~scale:Time "instr_ns_p50" "ns" (Meter.pct per_instr 50.0);
  add ~scale:Time "instr_ns_p90" "ns" (Meter.pct per_instr 90.0);
  add "words_per_instr" "words/instr" (words /. instr);
  add "segue_cycles_vs_native" "ratio" (cycle_ratio round0 "segue");
  add "basereg_cycles_vs_native" "ratio" (cycle_ratio round0 "basereg");
  add ~scale:Rate "host_req_per_s" "req/s" (n /. ns *. 1e9);
  add "words_per_req" "words/req" (words /. n);
  add "sim_goodput_rps" "sim_req/s" (float_of_int (List.length sim_us) /. Meter.sum sim_us *. 1e6);
  add "sim_e2e_p50_us" "sim_us" (Meter.pct sim_us 50.0);
  add "sim_e2e_p99_us" "sim_us" (Meter.pct sim_us 99.0);
  Report.note "instr_ns_p50/p90 over %d invocations in %d measured rounds" (List.length runs)
    (List.length rounds);
  check_results report (round0 @ List.concat !later)

(* --- traced run: per-layer metrics --------------------------------------- *)

let kernel_run spans report ?cost ~engine (k : Kernel.t) =
  match
    Meter.measure (fun () ->
        Span.record spans ~cat:"tier" "workloads.kernel.run" (fun () ->
            Kernel.run ?cost ~engine ~strategy:Sfi_core.Strategy.segue k))
  with
  | m, c ->
      Report.attempt report ~ok:true;
      Some (m, c)
  | exception Failure msg ->
      Report.attempt report ~ok:false;
      Report.check report false "%s" msg;
      None

(* Every kernel through Kernel.run under each engine and under the
   frontend-free cost model; all engines must agree on every counter. *)
let engine_ledger report spans round0 kernels =
  Span.set_iter spans (-100);
  let arms = Ledger.engines @ [ ("no_frontend", Machine.Adaptive) ] in
  let totals = Hashtbl.create 8 in
  let bump arm (m : Kernel.measurement) (c : Meter.cost) =
    let ns, words, instr = Option.value (Hashtbl.find_opt totals arm) ~default:(0.0, 0.0, 0) in
    Hashtbl.replace totals arm (ns +. c.Meter.ns, words +. c.Meter.words, instr + m.instructions)
  in
  let sb = ref 0 and sb_instr = ref 0 and promotions = ref 0 in
  List.iter
    (fun (k : Kernel.t) ->
      let r0 = List.find (fun (p, _) -> p.kernel == k && p.sname = "segue") round0 |> snd in
      List.iter
        (fun (arm, engine) ->
          let cost = if arm = "no_frontend" then Some Sfi_machine.Cost.no_frontend else None in
          match kernel_run spans report ?cost ~engine k with
          | None -> ()
          | Some (m, c) ->
              bump arm m c;
              let agrees =
                Some m.Kernel.result = r0.result && m.instructions = r0.counters.instructions
                && (arm = "no_frontend"
                   || m.cycles = r0.counters.cycles && m.dtlb_misses = r0.dtlb
                      && m.dcache_misses = r0.dcache
                      && m.fetched_bytes = r0.counters.code_bytes)
              in
              Report.check report agrees "%s: engine %s diverges from the measured run" k.name arm;
              if arm = "adaptive" then begin
                Report.check report (m.tier = r0.tier) "%s: adaptive tier stats differ on repeat"
                  k.name;
                sb := !sb + m.tier.Machine.superblock_instructions;
                sb_instr := !sb_instr + m.instructions;
                promotions := !promotions + m.tier.Machine.promotions
              end)
        arms)
    kernels;
  List.iter
    (fun (arm, _) ->
      match Hashtbl.find_opt totals arm with
      | Some (ns, words, instructions) ->
          Ledger.engine_cost report ~arm { Meter.ns; words } ~instructions
      | None -> ())
    arms;
  Ledger.tier report ~superblock_instructions:!sb ~instructions:!sb_instr ~promotions:!promotions

let traced report w ~workload ~seed ~seconds =
  let spans = Span.create ~enabled:true in
  let _, pairs = timed_setup spans (members w) in
  Ledger.setup_layers report spans;
  let first = firsts () in
  let round0 = run_round ~spans ~check_words:false report ~seed ~round:0 ~first pairs in
  check_members report w round0;
  (* Simulated design of the code each strategy produces. *)
  List.iter
    (fun (s, _) ->
      let runs = List.filter (fun (p, _) -> p.sname = s) round0 in
      let sum f = List.fold_left (fun a (_, r) -> a + f r.counters) 0 runs in
      Report.add report ("core.codegen.code_bytes." ^ s) "bytes"
        (float_of_int (List.fold_left (fun a (p, _) -> a + p.compiled.Codegen.code_bytes) 0 runs));
      Ledger.strategy_counters report ~strategy:s
        {
          Machine.instructions = sum (fun c -> c.instructions);
          cycles = sum (fun c -> c.cycles);
          loads = sum (fun c -> c.loads);
          stores = sum (fun c -> c.stores);
          code_bytes = sum (fun c -> c.code_bytes);
          seg_base_writes = sum (fun c -> c.seg_base_writes);
          pkru_writes = sum (fun c -> c.pkru_writes);
        })
    Ledger.strategies;
  let mruns = List.filter (fun (p, _) -> measured p) round0 |> List.map snd in
  let total f = List.fold_left (fun a r -> a + f r) 0 mruns in
  Ledger.misses report
    ~instructions:(total (fun r -> r.counters.instructions))
    ~dtlb:(total (fun r -> r.dtlb))
    ~dcache:(total (fun r -> r.dcache));
  (* The same measured rounds untraced and traced, alternating, for half
     the run's seconds: the ledger below takes about as long again. *)
  let mpairs = List.filter measured pairs in
  let untraced = ref 0.0 and traced = ref 0.0 and round = ref 1 and all = ref round0 in
  let timed sp =
    let runs = run_round ~spans:sp ~check_words:false report ~seed ~round:!round ~first mpairs in
    incr round;
    all := runs @ !all;
    Meter.sum (List.map (fun (_, r) -> r.cost.Meter.ns) runs)
  in
  let start = Meter.now_s () in
  while Meter.elapsed_s start < seconds /. 2.0 || !round < 5 do
    untraced := !untraced +. timed Span.disabled;
    traced := !traced +. timed spans
  done;
  Ledger.span_overhead report ~untraced:!untraced ~traced:!traced;
  check_results report !all;
  engine_ledger report spans round0 (members w);
  Ledger.load_ns_per_instr report spans ~reps:3
    (List.map (fun p -> p.compiled.Codegen.program) pairs);
  let rt = Ledger.runtime report spans in
  Serving.ledger report spans ~seed ~reps:3 rt;
  Ledger.export report spans ~workload ~seed
