(* Per-layer metrics shared by the traced runs of every workload: the
   reporting helpers, the isolated runtime calls, the Micro_kv handler as
   the serving path's kernel, and the span-file export. *)

module Machine = Sfi_machine.Machine
module Strategy = Sfi_core.Strategy
module Workloads = Sfi_faas.Workloads

let strategies =
  [ ("segue", Strategy.segue); ("basereg", Strategy.wasm_default); ("native", Strategy.native) ]

let engines =
  Machine.
    [ ("reference", Reference); ("threaded", Threaded); ("tier2", Tier2); ("adaptive", Adaptive) ]

let ratio a b = float_of_int a /. float_of_int b

let strategy_counters report ~strategy (c : Machine.counters) =
  let add name u v = Report.add report (Printf.sprintf "machine.%s.%s" name strategy) u v in
  add "cpi" "cycles/instr" (ratio c.cycles c.instructions);
  add "fetched_bytes_per_instr" "bytes/instr" (ratio c.code_bytes c.instructions);
  add "loads_per_instr" "loads/instr" (ratio c.loads c.instructions);
  add "stores_per_instr" "stores/instr" (ratio c.stores c.instructions)

let engine_cost report ~arm (cost : Meter.cost) ~instructions =
  let n = float_of_int instructions in
  Report.add ~scale:Time report ("machine.exec_ns_per_instr." ^ arm) "ns" (cost.Meter.ns /. n);
  if arm <> "no_frontend" then
    Report.add report ("machine.words_per_instr." ^ arm) "words/instr" (cost.Meter.words /. n)

let misses report ~instructions ~dtlb ~dcache =
  Report.add report "machine.dtlb_misses_per_kinstr" "1/kinstr" (1000.0 *. ratio dtlb instructions);
  Report.add report "machine.dcache_misses_per_kinstr" "1/kinstr"
    (1000.0 *. ratio dcache instructions)

let tier report ~superblock_instructions ~instructions ~promotions =
  Report.add report "machine.tier.sb_share" "ratio" (ratio superblock_instructions instructions);
  Report.add report "machine.tier.promotions" "count" (float_of_int promotions)

(* Translation (Machine.load_program) per static instruction. *)
let load_ns_per_instr report spans ~reps programs =
  let ns = ref 0.0 and instrs = ref 0 in
  List.iter
    (fun (program : Sfi_x86.Ast.program) ->
      let mach =
        Span.record spans ~cat:"lifecycle" "machine.create" (fun () ->
            Machine.create (Sfi_vmem.Space.create ()))
      in
      for _ = 1 to reps do
        let (), c =
          Meter.measure (fun () ->
              Span.record spans ~cat:"lifecycle" "machine.load_program" (fun () ->
                  Machine.load_program mach program))
        in
        ns := !ns +. c.Meter.ns;
        instrs := !instrs + Array.length program
      done)
    programs;
  Report.add ~scale:Time report "machine.load_ns_per_instr" "ns" (!ns /. float_of_int !instrs)

let span_mean spans name =
  match List.assoc_opt name (Span.summaries spans) with
  | Some s -> s.Span.total_ns /. float_of_int s.Span.count
  | None -> nan

let setup_layers report spans =
  let add name span = Report.add ~scale:Time report name "us" (span_mean spans span /. 1e3) in
  add "core.codegen.compile_us" "core.codegen.compile";
  add "runtime.create_engine_us" "runtime.create_engine"

(* Traced minus untraced host time of the same workload iterations. *)
let span_overhead report ~untraced ~traced =
  Report.add report "trace.span_overhead_pct" "%" ((traced /. untraced -. 1.0) *. 100.0)

(* --- isolated runtime calls (the same on every workload) ---------------- *)

let micro () = Workloads.module_of Workloads.Micro_kv

let runtime report spans =
  let compiled = Handler.compile (micro ()) in
  let a = Handler.arm ~spans ~name:"runtime.start_call+step" (Handler.engine compiled) in
  Report.check report a.Handler.checksum_ok
    "micro_kv: handler checksum differs from the interpreter";
  let step = Handler.per_call a.Handler.requests a.Handler.cost in
  let transition = Handler.transition ~spans () in
  let admit = Handler.admit ~spans compiled in
  let recycle = Handler.recycle ~spans compiled in
  let add ?scale = Report.add ?scale report in
  add ~scale:Time "runtime.step_ns_per_req" "ns" step.Handler.ns_per_call;
  add "runtime.step_words_per_req" "words" step.Handler.words_per_call;
  add ~scale:Time "runtime.transition_ns" "ns" transition.Handler.ns_per_call;
  add ~scale:Time "runtime.admit_ns" "ns" admit.Handler.ns_per_call;
  add "runtime.admit_words" "words" admit.Handler.words_per_call;
  add ~scale:Time "runtime.recycle_ns" "ns" recycle.Handler.ns_per_call;
  add "runtime.recycle_words" "words" recycle.Handler.words_per_call;
  { Handler.step; admit }

(* --- the serving path's kernel: Micro_kv's handler ---------------------- *)

let handler_kernel_path report spans =
  List.iter
    (fun (name, strategy) ->
      let compiled = Handler.compile ~colorguard:false ~strategy (micro ()) in
      Report.add report ("core.codegen.code_bytes." ^ name) "bytes"
        (float_of_int compiled.Sfi_core.Codegen.code_bytes);
      let a = Handler.arm ~spans ~name:"handler.batch" (Handler.engine compiled) in
      Report.check report a.Handler.checksum_ok "micro_kv under %s: checksum differs" name;
      strategy_counters report ~strategy:name a.Handler.counters)
    strategies;
  let compiled = Handler.compile (micro ()) in
  load_ns_per_instr report spans ~reps:200 [ compiled.Sfi_core.Codegen.program ];
  let arm ?cost engine =
    Handler.arm ~spans ~name:"handler.batch" (Handler.engine ?cost ~engine compiled)
  in
  let arms = List.map (fun (name, e) -> (name, arm e)) engines in
  let reference = List.assoc "reference" arms in
  List.iter
    (fun (name, (a : Handler.arm)) ->
      Report.check report
        (a.checksum_ok && a.counters = reference.counters
        && a.dtlb_misses = reference.dtlb_misses
        && a.dcache_misses = reference.dcache_misses)
        "micro_kv: engine %s diverges from reference" name;
      engine_cost report ~arm:name a.cost ~instructions:a.counters.instructions)
    arms;
  let nf = arm ~cost:Sfi_machine.Cost.no_frontend Machine.Adaptive in
  Report.check report
    (nf.checksum_ok && nf.counters.instructions = reference.counters.instructions)
    "micro_kv: no_frontend run diverges";
  engine_cost report ~arm:"no_frontend" nf.cost ~instructions:nf.counters.instructions;
  let ad = List.assoc "adaptive" arms in
  tier report ~superblock_instructions:ad.superblock_instructions
    ~instructions:ad.counters.instructions ~promotions:ad.tier.promotions;
  misses report ~instructions:ad.counters.instructions ~dtlb:ad.dtlb_misses
    ~dcache:ad.dcache_misses

(* --- span file ----------------------------------------------------------- *)

let out_dir = Filename.concat "perfbench" "out"

let export report spans ~workload ~seed =
  Report.note "%-34s %8s %12s %12s" "span" "count" "total_ms" "self_ms";
  List.iter
    (fun (name, s) ->
      Report.note "%-34s %8d %12.3f %12.3f" name s.Span.count (s.Span.total_ns /. 1e6)
        (s.Span.self_ns /. 1e6))
    (Span.summaries spans);
  let json = Span.chrome_json spans in
  match Sfi_trace.Trace.validate_chrome_json json with
  | Error msg -> Report.check report false "span file fails Trace.validate_chrome_json: %s" msg
  | Ok v ->
      if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
      let path = Filename.concat out_dir (Printf.sprintf "%s-seed%Ld.trace.json" workload seed) in
      Out_channel.with_open_bin path (fun oc -> output_string oc json);
      Report.note "span file: %s (%d events, categories %s)" path v.Sfi_trace.Trace.json_events
        (String.concat "," v.Sfi_trace.Trace.json_cats)
