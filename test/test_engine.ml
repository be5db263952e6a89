(* Differential validation of the translated execution engines against
   the reference step interpreter: lockstep snapshot comparison on
   handcrafted programs covering every trap kind and control-flow shape, a
   randomized qcheck property reusing the test_random_programs generator
   through the full Wasm pipeline, and targeted tests for the page-access
   cache's invalidation edges (mprotect, pkru writes, unmap/generation
   bumps, madvise, host stores). *)

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

let mb = 1 lsl 20

(* A fresh machine per call: lockstep runs the thunk twice and the two
   machines must not share a Space. *)
let make_machine ?(pkru = Mpk.allow_all) ?(setup = fun _ -> ()) instrs () =
  let space = Space.create () in
  (match Space.map space ~addr:mb ~len:(16 * Space.page_size) ~prot:Prot.rw with
  | Ok () -> ()
  | Error m -> failwith m);
  let m = Machine.create space in
  Machine.load_program m (Array.of_list ((X.Label "entry" :: instrs) @ [ X.Ret ]));
  Machine.set_reg m X.RSP (Int64.of_int (mb + (8 * Space.page_size)));
  Machine.set_pkru m pkru;
  setup m;
  m

(* Each handcrafted program runs under every translated engine against the
   reference interpreter: one instruction per slice for tier 1, and slices
   wide enough to enter the superblocks [Tier2] promotes at load. *)
let engine_pairs =
  [
    ((Machine.Reference, Machine.Threaded), 1);
    ((Machine.Reference, Machine.Tier2), 97);
    ((Machine.Reference, Machine.Adaptive), 97);
  ]

let lockstep ?pkru ?setup instrs =
  let run (engines, stride) =
    match
      Lockstep.run_pair ~engines ~stride ~make:(make_machine ?pkru ?setup instrs) ~entry:"entry"
        ()
    with
    | Ok status -> status
    | Error d ->
        Alcotest.failf "engines diverged (stride %d): %s" stride
          (Format.asprintf "%a" Lockstep.pp_divergence d)
  in
  (* Every pair includes the reference, so all end in its status. *)
  List.hd (List.map run engine_pairs)

let check_lockstep_halted ?pkru ?setup instrs =
  match lockstep ?pkru ?setup instrs with
  | Machine.Halted -> ()
  | Machine.Trapped k -> Alcotest.failf "trapped: %s" (X.trap_name k)
  | Machine.Yielded -> Alcotest.fail "yielded"

let check_lockstep_trap expected ?pkru ?setup instrs =
  match lockstep ?pkru ?setup instrs with
  | Machine.Trapped k when k = expected -> ()
  | Machine.Trapped k -> Alcotest.failf "wrong trap: %s" (X.trap_name k)
  | Machine.Halted -> Alcotest.fail "expected trap, halted"
  | Machine.Yielded -> Alcotest.fail "expected trap, yielded"

(* ------------------------------------------------------------------ *)
(* Lockstep on handcrafted programs.                                   *)
(* ------------------------------------------------------------------ *)

let test_lockstep_control_flow () =
  check_lockstep_halted
    [
      X.Mov (X.W64, X.Reg X.RAX, X.Imm 0L);
      X.Mov (X.W64, X.Reg X.RCX, X.Imm 10L);
      X.Label "loop";
      X.Alu (X.Add, X.W64, X.Reg X.RAX, X.Reg X.RCX);
      X.Alu (X.Sub, X.W64, X.Reg X.RCX, X.Imm 1L);
      X.Cmp (X.W64, X.Reg X.RCX, X.Imm 0L);
      X.Jcc (X.NE, "loop");
      X.Jmp "over";
      X.Trap X.Trap_unreachable;
      X.Label "over";
      X.Call "leaf";
      X.Jmp "done";
      X.Label "leaf";
      X.Alu (X.Xor, X.W64, X.Reg X.RDX, X.Reg X.RDX);
      X.Setcc (X.E, X.RDX);
      X.Ret;
      X.Label "done";
      X.Cmovcc (X.NE, X.W64, X.RSI, X.Reg X.RAX);
      X.Nop;
    ]

let test_lockstep_indirect () =
  (* Jmp_reg / Call_reg through label addresses resolved after load. *)
  let setup m =
    Machine.set_reg m X.R10 (Int64.of_int (Machine.label_address m "target"));
    Machine.set_reg m X.R11 (Int64.of_int (Machine.label_address m "fn"))
  in
  check_lockstep_halted ~setup
    [
      X.Jmp_reg X.R10;
      X.Trap X.Trap_unreachable;
      X.Label "target";
      X.Call_reg X.R11;
      X.Jmp "done";
      X.Label "fn";
      X.Alu (X.Add, X.W64, X.Reg X.RAX, X.Imm 3L);
      X.Ret;
      X.Label "done";
      X.Nop;
    ]

let test_lockstep_memory_and_segments () =
  check_lockstep_halted
    [
      X.Wrfsbase X.RBP;
      (* RBP is 0 here: fs base 0 keeps absolute disp addressing valid. *)
      X.Mov (X.W64, X.Reg X.RBX, X.Imm (Int64.of_int mb));
      X.Mov (X.W64, X.Mem (X.mem ~base:X.RBX ()), X.Imm 0x1122334455667788L);
      X.Mov (X.W32, X.Reg X.RAX, X.Mem (X.mem ~base:X.RBX ~disp:4 ()));
      X.Movzx (X.W64, X.W8, X.RCX, X.Mem (X.mem ~base:X.RBX ~disp:7 ()));
      X.Movsx (X.W64, X.W16, X.RDX, X.Mem (X.mem ~base:X.RBX ~disp:6 ()));
      X.Lea (X.W64, X.RSI, X.mem ~base:X.RBX ~index:(X.RCX, X.S8) ~disp:(-8) ());
      X.Push (X.Reg X.RAX);
      X.Push (X.Imm 42L);
      X.Pop X.RDI;
      X.Pop X.R8;
      X.Vdup8 (X.XMM 1, 0x5A);
      X.Vstore (X.mem ~base:X.RBX ~disp:64 (), X.XMM 1);
      X.Vload (X.XMM 2, X.mem ~base:X.RBX ~disp:64 ());
      X.Vzero (X.XMM 3);
      (* a page-crossing store exercises the slow path next to the fast one *)
      X.Mov (X.W64, X.Mem (X.mem ~base:X.RBX ~disp:4092 ()), X.Reg X.RAX);
      X.Shift (X.Rol, X.W64, X.Reg X.RAX, X.Count_imm 9);
      X.Mov (X.W8, X.Reg X.RCX, X.Imm 3L);
      X.Shift (X.Shl, X.W32, X.Reg X.RAX, X.Count_cl);
      X.Bitcnt (X.Popcnt, X.W64, X.R9, X.Reg X.RAX);
      (* ops codegen emits that no other handcrafted program runs *)
      X.Rdfsbase X.R10;
      X.Neg (X.W64, X.Reg X.RAX);
      X.Neg (X.W32, X.Mem (X.mem ~base:X.RBX ~disp:8 ()));
      X.Not (X.W64, X.Reg X.R9);
      X.Not (X.W32, X.Mem (X.mem ~base:X.RBX ~disp:8 ()));
    ]

let test_lockstep_traps () =
  check_lockstep_trap X.Trap_unreachable [ X.Trap X.Trap_unreachable ];
  check_lockstep_trap X.Trap_indirect_call_type [ X.Trap X.Trap_indirect_call_type ];
  check_lockstep_trap X.Trap_out_of_bounds
    [ X.Mov (X.W64, X.Reg X.RAX, X.Mem (X.mem ~disp:(5 * mb) ())) ];
  check_lockstep_trap X.Trap_integer_divide_by_zero
    [
      X.Mov (X.W64, X.Reg X.RAX, X.Imm 7L); X.Cqo X.W64;
      X.Div (X.W64, false, X.Imm 0L);
    ];
  check_lockstep_trap X.Trap_integer_overflow
    [
      X.Mov (X.W64, X.Reg X.RAX, X.Imm Int64.min_int); X.Cqo X.W64;
      X.Div (X.W64, true, X.Imm (-1L));
    ];
  (* jumping into the void is an out-of-bounds pc in both engines *)
  check_lockstep_trap X.Trap_out_of_bounds
    ~setup:(fun m -> Machine.set_reg m X.R10 2L)
    [ X.Jmp_reg X.R10 ]

let test_lockstep_pkru_and_hostcall () =
  (* wrpkru revoking the default key makes the next load trap, identically
     under both engines; a hostcall in between exercises the handler path. *)
  let setup m = Machine.set_hostcall_handler m (fun m' _ -> Machine.set_reg m' X.R15 99L) in
  check_lockstep_trap X.Trap_out_of_bounds ~setup
    [
      X.Mov (X.W64, X.Reg X.RBX, X.Imm (Int64.of_int mb));
      X.Mov (X.W64, X.Reg X.RDX, X.Mem (X.mem ~base:X.RBX ()));
      X.Hostcall 7;
      X.Rdpkru;
      X.Mov (X.W64, X.Reg X.RAX, X.Imm (Int64.of_int (Mpk.allow_only [ 1 ])));
      X.Wrpkru;
      X.Mov (X.W64, X.Reg X.RDX, X.Mem (X.mem ~base:X.RBX ()));
    ]

(* ------------------------------------------------------------------ *)
(* Randomized differential property through the full Wasm pipeline.    *)
(* ------------------------------------------------------------------ *)

let run_wasm engine m args =
  let cfg = Codegen.default_config ~strategy:Strategy.segue () in
  let compiled = Codegen.compile cfg m in
  let eng = Runtime.create_engine ~engine compiled in
  let inst = Runtime.instantiate eng in
  let result = Runtime.invoke inst "run" args in
  let mach = Runtime.machine eng in
  let c = Machine.counters mach in
  ( result,
    c,
    Machine.dtlb_misses mach,
    Machine.dcache_misses mach,
    Runtime.read_memory inst ~addr:0 ~len:4096 )

let check_engines_agree seed =
  let rng = Prng.create ~seed:(Int64.of_int seed) in
  let m = Test_random_programs.gen_module rng in
  let a = Int64.logand (Prng.next_int64 rng) 0xFFFFFFFFL in
  let b = Prng.next_int64 rng in
  let r_res, r_c, r_tlb, r_dc, r_mem = run_wasm Machine.Reference m [ a; b ] in
  let t_res, t_c, t_tlb, t_dc, t_mem = run_wasm Machine.Threaded m [ a; b ] in
  (match (r_res, t_res) with
  | Ok rv, Ok tv ->
      if rv <> tv then QCheck.Test.fail_reportf "seed %d: result %Ld vs %Ld" seed rv tv
  | Error rk, Error tk ->
      if rk <> tk then
        QCheck.Test.fail_reportf "seed %d: trap %s vs %s" seed (X.trap_name rk) (X.trap_name tk)
  | Ok rv, Error tk ->
      QCheck.Test.fail_reportf "seed %d: reference %Ld, threaded trapped %s" seed rv
        (X.trap_name tk)
  | Error rk, Ok tv ->
      QCheck.Test.fail_reportf "seed %d: reference trapped %s, threaded %Ld" seed
        (X.trap_name rk) tv);
  if r_c <> t_c then QCheck.Test.fail_reportf "seed %d: counters diverged" seed;
  if r_tlb <> t_tlb then QCheck.Test.fail_reportf "seed %d: dTLB %d vs %d" seed r_tlb t_tlb;
  if r_dc <> t_dc then QCheck.Test.fail_reportf "seed %d: dcache %d vs %d" seed r_dc t_dc;
  if not (String.equal r_mem t_mem) then
    QCheck.Test.fail_reportf "seed %d: final memory images differ" seed;
  true

let qcheck_differential =
  QCheck.Test.make ~count:60 ~name:"threaded = reference on random programs"
    QCheck.(int_range 1000 9999)
    check_engines_agree

(* ------------------------------------------------------------------ *)
(* Page-access cache invalidation edges.                               *)
(* ------------------------------------------------------------------ *)

(* Run the same program on a given engine with a private machine; used to
   assert machine-observable state the lockstep API does not expose. *)
let run_with engine ?pkru ?setup instrs =
  let m = make_machine ?pkru ?setup instrs () in
  Machine.set_engine m engine;
  let st = Machine.execute m ~entry:"entry" () in
  (m, st)

let both_engines f =
  List.iter (fun e -> f e) [ Machine.Reference; Machine.Threaded ]

let test_pcache_prot_change () =
  (* A warm read of the page must not let a later store bypass mprotect. *)
  both_engines (fun engine ->
      let setup m =
        Machine.set_hostcall_handler m (fun m' _ ->
            match
              Space.protect (Machine.space m') ~addr:mb ~len:Space.page_size ~prot:Prot.r
            with
            | Ok () -> ()
            | Error e -> failwith e)
      in
      let _, st =
        run_with engine ~setup
          [
            X.Mov (X.W64, X.Reg X.RBX, X.Imm (Int64.of_int mb));
            X.Mov (X.W64, X.Mem (X.mem ~base:X.RBX ()), X.Imm 5L);
            X.Mov (X.W64, X.Reg X.RAX, X.Mem (X.mem ~base:X.RBX ()));
            X.Hostcall 1;
            X.Mov (X.W64, X.Mem (X.mem ~base:X.RBX ()), X.Imm 6L);
          ]
      in
      match st with
      | Machine.Trapped X.Trap_out_of_bounds -> ()
      | st ->
          Alcotest.failf "store after mprotect: expected oob trap, got %s"
            (match st with
            | Machine.Halted -> "halted"
            | Machine.Yielded -> "yielded"
            | Machine.Trapped k -> X.trap_name k))

let test_pcache_pkru_write () =
  (* set_pkru from the host between runs must flush the baked verdicts.
     The data page gets its own pkey so the stack (key 0) stays usable. *)
  both_engines (fun engine ->
      let setup m =
        let space = Machine.space m in
        (match Space.map space ~addr:(2 * mb) ~len:Space.page_size ~prot:Prot.rw with
        | Ok () -> ()
        | Error e -> failwith e);
        match
          Space.pkey_protect space ~addr:(2 * mb) ~len:Space.page_size ~prot:Prot.rw ~key:2
        with
        | Ok () -> ()
        | Error e -> failwith e
      in
      let m =
        make_machine ~setup [ X.Mov (X.W64, X.Reg X.RAX, X.Mem (X.mem ~disp:(2 * mb) ())) ] ()
      in
      Machine.set_engine m engine;
      (match Machine.execute m ~entry:"entry" () with
      | Machine.Halted -> ()
      | _ -> Alcotest.fail "first load should succeed");
      Machine.set_pkru m (Mpk.allow_only [ 0 ]);
      match Machine.execute m ~entry:"entry" () with
      | Machine.Trapped X.Trap_out_of_bounds -> ()
      | _ -> Alcotest.fail "load after set_pkru should trap")

let test_pcache_unmap () =
  (* unmap bumps the space generation; the cached translation must die. *)
  both_engines (fun engine ->
      let setup m =
        Machine.set_hostcall_handler m (fun m' _ ->
            match Space.unmap (Machine.space m') ~addr:mb ~len:Space.page_size with
            | Ok () -> ()
            | Error e -> failwith e)
      in
      let _, st =
        run_with engine ~setup
          [
            X.Mov (X.W64, X.Reg X.RBX, X.Imm (Int64.of_int mb));
            X.Mov (X.W64, X.Reg X.RAX, X.Mem (X.mem ~base:X.RBX ()));
            X.Hostcall 1;
            X.Mov (X.W64, X.Reg X.RAX, X.Mem (X.mem ~base:X.RBX ()));
          ]
      in
      match st with
      | Machine.Trapped X.Trap_out_of_bounds -> ()
      | _ -> Alcotest.fail "load after unmap should trap")

let test_pcache_madvise () =
  (* madvise(DONTNEED) drops the backing page: the cached bytes must not
     serve the stale contents. *)
  both_engines (fun engine ->
      let setup m =
        Machine.set_hostcall_handler m (fun m' _ ->
            match Space.madvise_dontneed (Machine.space m') ~addr:mb ~len:Space.page_size with
            | Ok () -> ()
            | Error e -> failwith e)
      in
      let m, st =
        run_with engine ~setup
          [
            X.Mov (X.W64, X.Reg X.RBX, X.Imm (Int64.of_int mb));
            X.Mov (X.W64, X.Mem (X.mem ~base:X.RBX ()), X.Imm 0xABL);
            X.Mov (X.W64, X.Reg X.RCX, X.Mem (X.mem ~base:X.RBX ()));
            X.Hostcall 1;
            X.Mov (X.W64, X.Reg X.RAX, X.Mem (X.mem ~base:X.RBX ()));
          ]
      in
      (match st with Machine.Halted -> () | _ -> Alcotest.fail "should halt");
      Alcotest.(check int64) "read before madvise" 0xABL (Machine.get_reg m X.RCX);
      Alcotest.(check int64) "read after madvise is zero" 0L (Machine.get_reg m X.RAX))

let test_pcache_host_write_visible () =
  (* Host-side stores through the Space must be visible to a machine with
     a warm page cache. *)
  both_engines (fun engine ->
      let setup m =
        Machine.set_hostcall_handler m (fun m' _ ->
            Space.write64 (Machine.space m') mb 7L)
      in
      let m, st =
        run_with engine ~setup
          [
            X.Mov (X.W64, X.Reg X.RBX, X.Imm (Int64.of_int mb));
            X.Mov (X.W64, X.Mem (X.mem ~base:X.RBX ()), X.Imm 5L);
            X.Mov (X.W64, X.Reg X.RCX, X.Mem (X.mem ~base:X.RBX ()));
            X.Hostcall 1;
            X.Mov (X.W64, X.Reg X.RAX, X.Mem (X.mem ~base:X.RBX ()));
          ]
      in
      (match st with Machine.Halted -> () | _ -> Alcotest.fail "should halt");
      Alcotest.(check int64) "read before host store" 5L (Machine.get_reg m X.RCX);
      Alcotest.(check int64) "host store visible" 7L (Machine.get_reg m X.RAX))

let case name f = Alcotest.test_case name `Quick f

let tests =
  [
    case "lockstep: control flow" test_lockstep_control_flow;
    case "lockstep: indirect jumps and calls" test_lockstep_indirect;
    case "lockstep: memory, segments, vectors" test_lockstep_memory_and_segments;
    case "lockstep: every trap kind" test_lockstep_traps;
    case "lockstep: pkru and hostcalls" test_lockstep_pkru_and_hostcall;
    QCheck_alcotest.to_alcotest qcheck_differential;
    case "page cache: mprotect invalidates" test_pcache_prot_change;
    case "page cache: set_pkru invalidates" test_pcache_pkru_write;
    case "page cache: unmap invalidates" test_pcache_unmap;
    case "page cache: madvise drops cached bytes" test_pcache_madvise;
    case "page cache: host writes visible" test_pcache_host_write_visible;
  ]
