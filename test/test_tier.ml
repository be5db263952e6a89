(* Tests for the tiered execution pipeline: profiler sample accounting
   across program swaps (the [profile_dropped] contract), eager superblock
   promotion under [Tier2] and the [Adaptive] runtime default,
   bit-identity of mid-run promotion with the per-instruction engines
   (handcrafted, qcheck-random, and fuzzer corpus programs), trace-driven
   demotion of trappable superblocks, and the page-access-cache
   invalidation edge across a superblock boundary. *)

module X = Sfi_x86.Ast
module Machine = Sfi_machine.Machine
module Lockstep = Sfi_machine.Lockstep
module Space = Sfi_vmem.Space
module Prot = Sfi_vmem.Prot
module Mpk = Sfi_vmem.Mpk
module Strategy = Sfi_core.Strategy
module Codegen = Sfi_core.Codegen
module Runtime = Sfi_runtime.Runtime
module Prng = Sfi_util.Prng
module Trace = Sfi_trace.Trace
module Fuzz = Sfi_fuzz.Fuzz

let mb = 1 lsl 20

let make_machine ?(setup = fun _ -> ()) instrs () =
  let space = Space.create () in
  (match Space.map space ~addr:mb ~len:(16 * Space.page_size) ~prot:Prot.rw with
  | Ok () -> ()
  | Error m -> failwith m);
  let m = Machine.create space in
  Machine.load_program m (Array.of_list ((X.Label "entry" :: instrs) @ [ X.Ret ]));
  Machine.set_reg m X.RSP (Int64.of_int (mb + (8 * Space.page_size)));
  setup m;
  m

(* A pure hot loop of [n] iterations, 6 instructions per trip. *)
let loop_program n =
  [
    X.Mov (X.W64, X.Reg X.RAX, X.Imm 0L);
    X.Mov (X.W64, X.Reg X.RCX, X.Imm (Int64.of_int n));
    X.Label "loop";
    X.Alu (X.Add, X.W64, X.Reg X.RAX, X.Reg X.RCX);
    X.Alu (X.Xor, X.W64, X.Reg X.RDX, X.Reg X.RAX);
    X.Alu (X.Add, X.W64, X.Reg X.RDX, X.Imm 3L);
    X.Alu (X.Sub, X.W64, X.Reg X.RCX, X.Imm 1L);
    X.Cmp (X.W64, X.Reg X.RCX, X.Imm 0L);
    X.Jcc (X.NE, "loop");
  ]

(* ------------------------------------------------------------------ *)
(* Satellite: profiler samples across load_program.                    *)
(* ------------------------------------------------------------------ *)

let test_profile_dropped_on_swap () =
  let m = make_machine (loop_program 200) () in
  Machine.arm_profiler ~interval:4 m;
  (match Machine.execute m ~entry:"entry" () with
  | Machine.Halted -> ()
  | _ -> Alcotest.fail "loop should halt");
  let s = Machine.profile_samples m in
  Alcotest.(check bool) "collected samples" true (s > 0);
  Alcotest.(check int) "nothing dropped yet" 0 (Machine.profile_dropped m);
  (* Swapping the program invalidates every collected PC: the histogram
     indexes the old instruction array. The samples must be surfaced as
     dropped, not silently zeroed. *)
  Machine.load_program m [| X.Label "entry"; X.Nop; X.Ret |];
  Alcotest.(check int) "swap drops the histogram" s (Machine.profile_dropped m);
  Alcotest.(check int) "histogram empty after swap" 0 (Machine.profile_samples m);
  (* The profiler stays armed: the fresh program fills a fresh histogram. *)
  (match Machine.execute m ~entry:"entry" () with
  | Machine.Halted -> ()
  | _ -> Alcotest.fail "nop program should halt");
  Alcotest.(check int) "dropped count is lifetime, not clobbered" s
    (Machine.profile_dropped m)

(* ------------------------------------------------------------------ *)
(* Promotion policy: eager tier 2, the runtime default, trace demotion. *)
(* ------------------------------------------------------------------ *)

(* A pure block (entry, ends in jmp) followed by a hazardous block (the
   store) and a bypass block (the hostcall). *)
let mixed_program =
  [
    X.Mov (X.W64, X.Reg X.RAX, X.Imm 1L);
    X.Alu (X.Add, X.W64, X.Reg X.RAX, X.Imm 2L);
    X.Jmp "stores";
    X.Label "stores";
    X.Mov (X.W64, X.Reg X.RBX, X.Imm (Int64.of_int mb));
    X.Mov (X.W64, X.Mem (X.mem ~base:X.RBX ()), X.Imm 5L);
    X.Hostcall 1;
    X.Alu (X.Add, X.W64, X.Reg X.RAX, X.Imm 1L);
    X.Nop;
  ]

let test_tier2_eager_promotion () =
  let setup m = Machine.set_hostcall_handler m (fun _ _ -> ()) in
  let m = make_machine ~setup mixed_program () in
  Machine.set_engine m Machine.Tier2;
  let st = Machine.tier_stats m in
  Alcotest.(check bool) "blocks discovered" true (st.Machine.blocks_total >= 3);
  (* The hostcall block can never be a superblock, so promotion must stop
     short of the full block count. *)
  Alcotest.(check bool) "some blocks promoted" true (st.Machine.blocks_promoted > 0);
  Alcotest.(check bool) "bypass block not promoted" true
    (st.Machine.blocks_promoted < st.Machine.blocks_total);
  (match Machine.execute m ~entry:"entry" () with
  | Machine.Halted -> ()
  | _ -> Alcotest.fail "should halt");
  Alcotest.(check bool) "instructions retired in superblocks" true
    (Machine.superblock_retired m > 0)

(* The runtime default promotes every eligible block when the program is
   loaded, exactly as [Tier2] does, and never arms the profiler. *)
let test_default_engine_promotes_at_load () =
  let k = Sfi_workloads.Sightglass.fib2 in
  let compiled =
    Codegen.compile (Codegen.default_config ~strategy:Strategy.segue ()) (Lazy.force k.wasm)
  in
  let promoted eng = (Machine.tier_stats (Runtime.machine eng)).Machine.blocks_promoted in
  let eng = Runtime.create_engine compiled in
  let before = promoted eng in
  Alcotest.(check bool) "promoted before the first run" true (before > 0);
  Alcotest.(check int) "same promotion as tier2"
    (promoted (Runtime.create_engine ~engine:Machine.Tier2 compiled))
    before;
  let inst = Runtime.instantiate eng in
  (match Runtime.invoke inst k.entry [ 10L ] with
  | Ok _ -> ()
  | Error t -> Alcotest.failf "fib2 trapped: %s" (X.trap_name t));
  let m = Runtime.machine eng in
  Alcotest.(check bool) "superblock instructions retired" true
    ((Machine.tier_stats m).Machine.superblock_instructions > 0);
  Alcotest.(check int) "profiler never armed" 0 (Machine.profile_samples m)

let test_trace_demotes_trappable_blocks () =
  let setup m = Machine.set_hostcall_handler m (fun _ _ -> ()) in
  let m = make_machine ~setup mixed_program () in
  Machine.set_engine m Machine.Tier2;
  let before = (Machine.tier_stats m).Machine.blocks_promoted in
  (* An enabled trace sink derives timestamps from the cycle counter, and
     a trappable superblock batches its cycle charges; those blocks fall
     back to tier 1. Pure blocks cannot trap mid-block, so they stay. *)
  Machine.set_trace m (Trace.create_ring ~capacity:64 ());
  let after = (Machine.tier_stats m).Machine.blocks_promoted in
  Alcotest.(check bool) "trappable superblocks demoted" true (after < before);
  Alcotest.(check bool) "pure superblocks survive tracing" true (after > 0);
  match Machine.execute m ~entry:"entry" () with
  | Machine.Halted -> ()
  | _ -> Alcotest.fail "should halt"

(* ------------------------------------------------------------------ *)
(* Mid-run promotion is unobservable.                                  *)
(* ------------------------------------------------------------------ *)

(* Drive two identical machines in fixed slices; promote every block on
   one of them between two slices (set_engine Tier2 mid-run) and demand
   the full snapshot stays bit-identical at every later slice edge. *)
let test_midrun_promotion_snapshot_identical () =
  let a = make_machine (loop_program 500) () in
  let b = make_machine (loop_program 500) () in
  Machine.start a ~entry:"entry";
  Machine.start b ~entry:"entry";
  let stride = 57 in
  let slice = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    incr slice;
    if !slice = 4 then Machine.set_engine b Machine.Tier2;
    let sa = Machine.run a ~fuel:stride in
    let sb = Machine.run b ~fuel:stride in
    if sa <> sb then Alcotest.failf "status diverged at slice %d" !slice;
    if Machine.snapshot a <> Machine.snapshot b then
      Alcotest.failf "snapshot diverged at slice %d" !slice;
    if sa <> Machine.Yielded then continue_ := false
  done;
  Alcotest.(check bool) "promoted machine actually used superblocks" true
    (Machine.superblock_retired b > 0)

(* Dropping back to [Threaded] demotes everything [Tier2] promoted: the
   run retires no superblock instructions and ends bit-identical to a
   machine that was [Threaded] from the start. *)
let test_threaded_after_tier2_demotes () =
  let fresh = make_machine (loop_program 300) () in
  let m = make_machine (loop_program 300) () in
  Machine.set_engine m Machine.Tier2;
  Alcotest.(check bool) "tier2 promoted blocks" true
    ((Machine.tier_stats m).Machine.blocks_promoted > 0);
  Machine.set_engine m Machine.Threaded;
  Alcotest.(check int) "threaded demoted every block" 0
    (Machine.tier_stats m).Machine.blocks_promoted;
  let run m =
    match Machine.execute m ~entry:"entry" () with
    | Machine.Halted -> Machine.snapshot m
    | _ -> Alcotest.fail "loop should halt"
  in
  let snap = run m in
  Alcotest.(check int) "no superblock instructions retired" 0 (Machine.superblock_retired m);
  Alcotest.(check bool) "snapshot matches a fresh threaded machine" true (snap = run fresh)

(* The same property via Lockstep: a stride wide enough to enter
   superblocks, reference vs the two tiered engines. *)
let lockstep_tiered ?setup engines instrs =
  match
    Lockstep.run_pair ~engines ~stride:97 ~make:(make_machine ?setup instrs) ~entry:"entry"
      ()
  with
  | Ok _ -> ()
  | Error d ->
      Alcotest.failf "engines diverged: %s" (Format.asprintf "%a" Lockstep.pp_divergence d)

let test_lockstep_tiered_engines () =
  lockstep_tiered (Machine.Reference, Machine.Tier2) (loop_program 300);
  lockstep_tiered (Machine.Threaded, Machine.Adaptive) (loop_program 300);
  lockstep_tiered
    ~setup:(fun m -> Machine.set_hostcall_handler m (fun _ _ -> ()))
    (Machine.Reference, Machine.Tier2) mixed_program

(* Randomized: the runtime's default engine ([Adaptive], which promotes
   every eligible block at load) against the reference interpreter
   through the full Wasm pipeline, including traps, memory images and
   every counter. *)
let run_wasm engine m args =
  let cfg = Codegen.default_config ~strategy:Strategy.segue () in
  let compiled = Codegen.compile cfg m in
  let eng = Runtime.create_engine ~engine compiled in
  let inst = Runtime.instantiate eng in
  let result = Runtime.invoke inst "run" args in
  let mach = Runtime.machine eng in
  ( result,
    Machine.counters mach,
    Machine.dtlb_misses mach,
    Machine.dcache_misses mach,
    Runtime.read_memory inst ~addr:0 ~len:4096 )

let check_adaptive_agrees seed =
  let rng = Prng.create ~seed:(Int64.of_int seed) in
  let m = Test_random_programs.gen_module rng in
  let a = Int64.logand (Prng.next_int64 rng) 0xFFFFFFFFL in
  let b = Prng.next_int64 rng in
  let r_res, r_c, r_tlb, r_dc, r_mem = run_wasm Machine.Reference m [ a; b ] in
  let t_res, t_c, t_tlb, t_dc, t_mem = run_wasm Machine.Adaptive m [ a; b ] in
  (match (r_res, t_res) with
  | Ok rv, Ok tv ->
      if rv <> tv then QCheck.Test.fail_reportf "seed %d: result %Ld vs %Ld" seed rv tv
  | Error rk, Error tk ->
      if rk <> tk then
        QCheck.Test.fail_reportf "seed %d: trap %s vs %s" seed (X.trap_name rk)
          (X.trap_name tk)
  | Ok rv, Error tk ->
      QCheck.Test.fail_reportf "seed %d: reference %Ld, adaptive trapped %s" seed rv
        (X.trap_name tk)
  | Error rk, Ok tv ->
      QCheck.Test.fail_reportf "seed %d: reference trapped %s, adaptive %Ld" seed
        (X.trap_name rk) tv);
  if r_c <> t_c then QCheck.Test.fail_reportf "seed %d: counters diverged" seed;
  if r_tlb <> t_tlb then QCheck.Test.fail_reportf "seed %d: dTLB %d vs %d" seed r_tlb t_tlb;
  if r_dc <> t_dc then QCheck.Test.fail_reportf "seed %d: dcache %d vs %d" seed r_dc t_dc;
  if not (String.equal r_mem t_mem) then
    QCheck.Test.fail_reportf "seed %d: final memory images differ" seed;
  true

let qcheck_adaptive =
  QCheck.Test.make ~count:40 ~name:"adaptive = reference on random programs"
    QCheck.(int_range 20000 29999)
    check_adaptive_agrees

(* Fuzzer corpus: a dozen generated programs through the full oracle,
   whose engine arm is now the reference / threaded / tier2 triple. Seeds
   deliberately disjoint from the test_fuzz corpus. *)
let test_fuzz_corpus_tiered () =
  for i = 0 to 11 do
    let p = Fuzz.generate (Int64.of_int (0xC0FFEE + i)) in
    let r = Fuzz.check_program p in
    match r.Fuzz.failure with
    | Some (oracle, detail) ->
        Alcotest.failf "seed %Ld: %s: %s" p.Fuzz.p_seed oracle detail
    | None -> ()
  done

(* ------------------------------------------------------------------ *)
(* Page-access cache invalidation across a superblock boundary.        *)
(* ------------------------------------------------------------------ *)

(* The hostcall mprotects the data page to read-only; the following block
   is a promoted (guarded) superblock whose store must still trap, with
   the unexecuted suffix rolled back so the snapshot matches the
   reference interpreter's. *)
let pcache_program =
  [
    X.Mov (X.W64, X.Reg X.RBX, X.Imm (Int64.of_int mb));
    X.Mov (X.W64, X.Mem (X.mem ~base:X.RBX ()), X.Imm 5L);
    X.Mov (X.W64, X.Reg X.RAX, X.Mem (X.mem ~base:X.RBX ()));
    X.Hostcall 1;
    X.Alu (X.Add, X.W64, X.Reg X.RAX, X.Imm 1L);
    X.Mov (X.W64, X.Reg X.RCX, X.Reg X.RAX);
    X.Mov (X.W64, X.Mem (X.mem ~base:X.RBX ()), X.Imm 6L);
    X.Alu (X.Add, X.W64, X.Reg X.RCX, X.Imm 2L);
    X.Nop;
  ]

let pcache_setup m =
  Machine.set_hostcall_handler m (fun m' _ ->
      match Space.protect (Machine.space m') ~addr:mb ~len:Space.page_size ~prot:Prot.r with
      | Ok () -> ()
      | Error e -> failwith e)

let test_pcache_superblock_boundary () =
  let run engine =
    let m = make_machine ~setup:pcache_setup pcache_program () in
    Machine.set_engine m engine;
    let st = Machine.execute m ~entry:"entry" () in
    (m, st, Machine.snapshot m)
  in
  let t2, st2, snap2 = run Machine.Tier2 in
  (match st2 with
  | Machine.Trapped X.Trap_out_of_bounds -> ()
  | Machine.Trapped k -> Alcotest.failf "wrong trap: %s" (X.trap_name k)
  | _ -> Alcotest.fail "store after mprotect must trap under tier 2");
  (* The trapping store lives inside a promoted superblock: the trap
     crossed a batched block, exercising the rollback side table. *)
  Alcotest.(check bool) "store block was promoted" true
    ((Machine.tier_stats t2).Machine.blocks_promoted > 0);
  Alcotest.(check bool) "superblock entered before the trap" true
    (Machine.superblock_retired t2 > 0);
  let _, st_ref, snap_ref = run Machine.Reference in
  if st2 <> st_ref then Alcotest.fail "status differs from reference";
  Alcotest.(check bool) "post-trap snapshot bit-identical to reference" true
    (snap2 = snap_ref)

let case name f = Alcotest.test_case name `Quick f

let tests =
  [
    case "profiler: load_program surfaces dropped samples" test_profile_dropped_on_swap;
    case "tier2: eager promotion and stats" test_tier2_eager_promotion;
    case "runtime default: promoted at load like tier2" test_default_engine_promotes_at_load;
    case "trace: trappable superblocks demoted" test_trace_demotes_trappable_blocks;
    case "mid-run promotion: snapshots bit-identical" test_midrun_promotion_snapshot_identical;
    case "lockstep: tiered engine pairs" test_lockstep_tiered_engines;
    case "threaded after tier2: demoted and identical" test_threaded_after_tier2_demotes;
    QCheck_alcotest.to_alcotest qcheck_adaptive;
    case "fuzz corpus through the tiered engine arm" test_fuzz_corpus_tiered;
    case "page cache: invalidation across a superblock" test_pcache_superblock_boundary;
  ]
