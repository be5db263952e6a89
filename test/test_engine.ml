(* Differential validation of the translated execution engines against
   the reference step interpreter: lockstep snapshot comparison on
   handcrafted programs covering every trap kind and control-flow shape, a
   randomized qcheck property reusing the test_random_programs generator
   through the full Wasm pipeline, a second one over straight-line x86
   blocks drawn directly (every specialised operand shape, partial
   writes, page-crossing and faulting accesses), and targeted tests for the page-access
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

(* Each handcrafted program runs under both translated settings against
   the reference interpreter: one instruction per slice for tier 1, and
   slices wide enough to enter the superblocks [Tier2] promotes at load.
   [Adaptive] is the same engine as [Tier2], so it needs no pair here. *)
let engine_pairs =
  [
    ((Machine.Reference, Machine.Threaded), 1);
    ((Machine.Reference, Machine.Tier2), 97);
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
(* Randomized lockstep over straight-line x86 blocks, drawn directly.  *)
(* ------------------------------------------------------------------ *)

(* Operand roles: the [block_regs] are read and written freely; RBX and
   the GS base hold [block_data] (mapped, two pages from the stack), R14
   a small index and R12 an unmapped address. None of those three is
   ever a destination. Displacements reach across the page boundary
   inside the data region, and an R12-based operand traps wherever it
   lands in the block. *)
let block_regs = X.[| RAX; RCX; RDX; RSI; RDI; R8; R9; R10; R11 |]

let block_data = mb + (10 * Space.page_size)
let pick rng a = a.(Prng.int rng (Array.length a))

let gen_block_mem rng =
  let disp =
    match Prng.int rng 3 with
    | 0 -> Space.page_size - 1 - Prng.int rng 7
    | 1 -> Prng.int rng 64
    | _ -> 8 * Prng.int rng (Space.page_size / 4)
  in
  match Prng.int rng 10 with
  | 0 -> X.mem ~base:X.R12 ~disp ()
  | 1 | 2 -> X.mem ~seg:X.GS ~base:X.R14 ~disp ~addr32:true ()
  | 3 | 4 -> X.mem ~base:X.RBX ~index:(X.R14, pick rng X.[| S1; S2; S4; S8 |]) ~disp ()
  | _ -> X.mem ~base:X.RBX ~disp ()

let gen_block_imm rng =
  match Prng.int rng 3 with
  | 0 -> Int64.of_int (Prng.int_in rng (-8) 8)
  | 1 -> pick rng [| 0x7FL; 0x80L; 0x7FFFFFFFL; 0x80000000L; 0xFFFFFFFFL; Int64.min_int; -1L |]
  | _ -> Prng.next_int64 rng

(* One draw: an (op, width, operand shape) taken uniformly from every
   form the translated tiers specialise, at every width, so W8/W16
   partial writes come along; Setcc and Cmovcc make the flags land in
   registers, and a Push is paired with a Pop to keep the stack level. *)
let gen_block_instr rng =
  let reg () = pick rng block_regs and mem () = gen_block_mem rng in
  let w () = pick rng X.[| W8; W16; W32; W64 |] in
  let rm () = if Prng.bool rng then X.Reg (reg ()) else X.Mem (mem ()) in
  let shape () =
    match Prng.int rng 5 with
    | 0 -> (X.Reg (reg ()), X.Reg (reg ()))
    | 1 -> (X.Reg (reg ()), X.Imm (gen_block_imm rng))
    | 2 -> (X.Reg (reg ()), X.Mem (mem ()))
    | 3 -> (X.Mem (mem ()), X.Reg (reg ()))
    | _ -> (X.Mem (mem ()), X.Imm (gen_block_imm rng))
  in
  let cond () = pick rng X.[| E; NE; L; LE; G; GE; B; BE; A; AE; S; NS |] in
  match Prng.int rng 11 with
  | 0 ->
      let d, s = shape () in
      [ X.Mov (w (), d, s) ]
  | 1 | 2 ->
      let d, s = shape () in
      [ X.Alu (pick rng X.[| Add; Sub; And; Or; Xor |], w (), d, s) ]
  | 3 ->
      let d, s = shape () in
      [ (if Prng.bool rng then X.Cmp (w (), d, s) else X.Test (w (), d, s)) ]
  | 4 -> [ X.Movzx (pick rng X.[| W32; W64 |], pick rng X.[| W8; W16 |], reg (), X.Mem (mem ())) ]
  | 5 ->
      let base = reg () and index = (reg (), pick rng X.[| S1; S2; S4; S8 |]) in
      let m = X.mem ~base ~index ~disp:(Prng.int_in rng (-4096) 4096) ~addr32:(Prng.bool rng) () in
      [ X.Lea (pick rng X.[| W16; W32; W64 |], reg (), m) ]
  | 6 ->
      let count = if Prng.int rng 4 = 0 then X.Count_cl else X.Count_imm (Prng.int rng 64) in
      [ X.Shift (pick rng X.[| Shl; Shr; Sar; Rol; Ror |], w (), X.Reg (reg ()), count) ]
  | 7 -> [ X.Imul (pick rng X.[| W16; W32; W64 |], reg (), rm ()) ]
  | 8 ->
      let src = if Prng.bool rng then X.Reg (reg ()) else X.Imm (gen_block_imm rng) in
      [ X.Push src; X.Pop (reg ()) ]
  | 9 -> [ X.Setcc (cond (), reg ()) ]
  | _ -> [ X.Cmovcc (cond (), pick rng X.[| W32; W64 |], reg (), rm ()) ]

(* Reference against each translated setting over one block: Lockstep
   compares status, registers, flags, pc (the trap pc on a fault) and
   every counter at each slice edge; the two final memory images must
   match as well. *)
let check_block_agrees seed =
  let rng = Prng.create ~seed:(Int64.of_int seed) in
  let block = List.concat (List.init (Prng.int_in rng 4 24) (fun _ -> gen_block_instr rng)) in
  let regs = Array.map (fun _ -> gen_block_imm rng) block_regs in
  let index = Int64.of_int (8 * Prng.int rng 64) in
  let fill = Array.init (3 * Space.page_size / 8) (fun _ -> Prng.next_int64 rng) in
  let setup m =
    Array.iteri (fun i r -> Machine.set_reg m r regs.(i)) block_regs;
    Machine.set_reg m X.RBX (Int64.of_int block_data);
    Machine.set_reg m X.R12 (Int64.of_int (64 * mb));
    Machine.set_reg m X.R14 index;
    Machine.set_seg_base m X.GS block_data;
    Array.iteri (fun i v -> Space.write64 (Machine.space m) (block_data + (8 * i)) v) fill
  in
  List.iter
    (fun (engines, stride) ->
      let made = ref [] in
      let make () =
        let m = make_machine ~setup block () in
        made := m :: !made;
        m
      in
      (match Lockstep.run_pair ~engines ~stride ~make ~entry:"entry" () with
      | Ok _ -> ()
      | Error d ->
          QCheck.Test.fail_reportf "seed %d, stride %d: %s" seed stride
            (Format.asprintf "%a" Lockstep.pp_divergence d));
      let image m = Space.read_bytes (Machine.space m) ~addr:mb ~len:(16 * Space.page_size) in
      match !made with
      | [ b; a ] when Bytes.equal (image a) (image b) -> ()
      | _ -> QCheck.Test.fail_reportf "seed %d, stride %d: memory images differ" seed stride)
    engine_pairs;
  true

let qcheck_blocks =
  QCheck.Test.make ~count:400 ~name:"tier2 = reference on random x86 blocks"
    QCheck.(int_range 0 999_999)
    check_block_agrees

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
    QCheck_alcotest.to_alcotest qcheck_blocks;
    case "page cache: mprotect invalidates" test_pcache_prot_change;
    case "page cache: set_pkru invalidates" test_pcache_pkru_write;
    case "page cache: unmap invalidates" test_pcache_unmap;
    case "page cache: madvise drops cached bytes" test_pcache_madvise;
    case "page cache: host writes visible" test_pcache_host_write_visible;
  ]
