(* Tests for the CPU emulator: semantics of the instruction subset, the
   architectural features Segue/ColorGuard rely on (segment bases, addr32
   truncation, PKRU enforcement), traps, counters, and contexts. *)

module X = Sfi_x86.Ast
module Machine = Sfi_machine.Machine
module Cost = Sfi_machine.Cost
module Space = Sfi_vmem.Space
module Prot = Sfi_vmem.Prot
module Mpk = Sfi_vmem.Mpk

let mb = 1 lsl 20

(* Build a machine with a mapped stack and data area, load [instrs]
   wrapped in an entry label, run, and return it. *)
let run_program ?(pkru = Mpk.allow_all) ?(setup = fun _ -> ()) instrs =
  let space = Space.create () in
  (match Space.map space ~addr:mb ~len:(16 * Space.page_size) ~prot:Prot.rw with
  | Ok () -> ()
  | Error m -> failwith m);
  (match Space.map space ~addr:(2 * mb) ~len:(16 * Space.page_size) ~prot:Prot.rw with
  | Ok () -> ()
  | Error m -> failwith m);
  let m = Machine.create space in
  Machine.load_program m (Array.of_list (X.Label "entry" :: instrs @ [ X.Ret ]));
  Machine.set_reg m X.RSP (Int64.of_int (mb + (8 * Space.page_size)));
  Machine.set_pkru m pkru;
  setup m;
  let status = Machine.execute m ~entry:"entry" () in
  (m, status)

let check_halted status =
  match status with
  | Machine.Halted -> ()
  | Machine.Trapped k -> Alcotest.failf "trapped: %s" (X.trap_name k)
  | Machine.Yielded -> Alcotest.fail "yielded"

let check_trap expected status =
  match status with
  | Machine.Trapped k when k = expected -> ()
  | Machine.Trapped k -> Alcotest.failf "wrong trap: %s" (X.trap_name k)
  | Machine.Halted -> Alcotest.fail "expected trap, halted"
  | Machine.Yielded -> Alcotest.fail "expected trap, yielded"

let test_mov_zero_extension () =
  let m, st =
    run_program
      [
        X.Mov (X.W64, X.Reg X.RAX, X.Imm (-1L));
        (* A 32-bit write zero-extends: the inline truncation Segue uses. *)
        X.Mov (X.W32, X.Reg X.RAX, X.Reg X.RAX);
        (* 8/16-bit writes preserve the upper bits. *)
        X.Mov (X.W64, X.Reg X.RCX, X.Imm 0x1122334455667788L);
        X.Mov (X.W8, X.Reg X.RCX, X.Imm 0L);
      ]
  in
  check_halted st;
  Alcotest.(check int64) "w32 zero-extends" 0xFFFFFFFFL (Machine.get_reg m X.RAX);
  Alcotest.(check int64) "w8 preserves upper" 0x1122334455667700L (Machine.get_reg m X.RCX)

let test_flags_and_branches () =
  let m, st =
    run_program
      [
        X.Mov (X.W64, X.Reg X.RAX, X.Imm 0L);
        X.Mov (X.W32, X.Reg X.RCX, X.Imm (-5L));
        X.Cmp (X.W32, X.Reg X.RCX, X.Imm 3L);
        X.Jcc (X.L, "signed_less");
        X.Trap X.Trap_unreachable;
        X.Label "signed_less";
        (* unsigned comparison sees -5 as huge *)
        X.Cmp (X.W32, X.Reg X.RCX, X.Imm 3L);
        X.Jcc (X.A, "unsigned_above");
        X.Trap X.Trap_unreachable;
        X.Label "unsigned_above";
        X.Setcc (X.NE, X.RAX);
        X.Test (X.W32, X.Reg X.RAX, X.Reg X.RAX);
        X.Jcc (X.NE, "done");
        X.Trap X.Trap_unreachable;
        X.Label "done";
        X.Cmovcc (X.E, X.W64, X.RAX, X.Reg X.RCX);
      ]
  in
  check_halted st;
  Alcotest.(check int64) "setcc wrote 1, cmov not taken" 1L (Machine.get_reg m X.RAX)

let test_arithmetic () =
  let m, st =
    run_program
      [
        X.Mov (X.W64, X.Reg X.RAX, X.Imm 7L);
        X.Imul (X.W64, X.RAX, X.Imm 6L);
        X.Shift (X.Shl, X.W64, X.Reg X.RAX, X.Count_imm 2);
        X.Alu (X.Sub, X.W64, X.Reg X.RAX, X.Imm 8L);
        (* 42*4 - 8 = 160 *)
        X.Mov (X.W64, X.Reg X.RCX, X.Imm 0x80000000L);
        X.Shift (X.Rol, X.W32, X.Reg X.RCX, X.Count_imm 1);
        X.Bitcnt (X.Popcnt, X.W64, X.RDX, X.Imm 0xF0F0L);
        X.Bitcnt (X.Tzcnt, X.W64, X.RSI, X.Imm 0x100L);
        X.Bitcnt (X.Lzcnt, X.W32, X.RDI, X.Imm 1L);
      ]
  in
  check_halted st;
  Alcotest.(check int64) "mul/shift/sub" 160L (Machine.get_reg m X.RAX);
  Alcotest.(check int64) "rol32 wraps to 1" 1L (Machine.get_reg m X.RCX);
  Alcotest.(check int64) "popcnt" 8L (Machine.get_reg m X.RDX);
  Alcotest.(check int64) "tzcnt" 8L (Machine.get_reg m X.RSI);
  Alcotest.(check int64) "lzcnt32" 31L (Machine.get_reg m X.RDI)

let test_division () =
  let m, st =
    run_program
      [
        X.Mov (X.W64, X.Reg X.RAX, X.Imm (-17L));
        X.Mov (X.W64, X.Reg X.R15, X.Imm 5L);
        X.Cqo X.W64;
        X.Div (X.W64, true, X.Reg X.R15);
      ]
  in
  check_halted st;
  Alcotest.(check int64) "idiv quotient truncates toward zero" (-3L) (Machine.get_reg m X.RAX);
  Alcotest.(check int64) "idiv remainder" (-2L) (Machine.get_reg m X.RDX);
  let _, st =
    run_program [ X.Mov (X.W64, X.Reg X.RAX, X.Imm 1L); X.Div (X.W64, false, X.Imm 0L) ]
  in
  check_trap X.Trap_integer_divide_by_zero st;
  let _, st =
    run_program
      [
        X.Mov (X.W32, X.Reg X.RAX, X.Imm 0x80000000L);
        X.Mov (X.W64, X.Reg X.R15, X.Imm (-1L));
        X.Cqo X.W32;
        X.Div (X.W32, true, X.Reg X.R15);
      ]
  in
  check_trap X.Trap_integer_overflow st

let test_segment_and_addr32 () =
  let m, st =
    run_program
      ~setup:(fun m ->
        Space.write32 (Machine.space m) (2 * mb) 0x1234l;
        Space.write32 (Machine.space m) ((2 * mb) + 16) 0x5678l)
      [
        X.Mov (X.W64, X.Reg X.RAX, X.Imm (Int64.of_int (2 * mb)));
        X.Wrgsbase X.RAX;
        (* gs:[0] *)
        X.Mov (X.W64, X.Reg X.RBX, X.Imm 0L);
        X.Mov (X.W32, X.Reg X.RCX, X.Mem (X.mem ~seg:X.GS ~base:X.RBX ~addr32:true ()));
        (* The addr32 override truncates a poisoned upper half: Figure 1's
           pattern 1. Without it this address would be far out of range. *)
        X.Mov (X.W64, X.Reg X.RDX, X.Imm 0xFFFFFFFF_00000010L);
        X.Mov (X.W32, X.Reg X.RSI, X.Mem (X.mem ~seg:X.GS ~base:X.RDX ~addr32:true ()));
        X.Rdgsbase X.RDI;
      ]
  in
  check_halted st;
  Alcotest.(check int64) "gs-relative load" 0x1234L (Machine.get_reg m X.RCX);
  Alcotest.(check int64) "addr32 truncates" 0x5678L (Machine.get_reg m X.RSI);
  Alcotest.(check int64) "rdgsbase" (Int64.of_int (2 * mb)) (Machine.get_reg m X.RDI);
  Alcotest.(check int) "seg base writes counted" 1 (Machine.counters m).Machine.seg_base_writes

let test_pkru_enforcement () =
  (* Color the data page 5 and run with a pkru that excludes it: the load
     traps exactly like a guard-region hit (§3.2). *)
  let setup m =
    match
      Space.pkey_protect (Machine.space m) ~addr:(2 * mb) ~len:Space.page_size ~prot:Prot.rw
        ~key:5
    with
    | Ok () -> ()
    | Error e -> failwith e
  in
  let load =
    [
      X.Mov (X.W32, X.Reg X.RAX, X.Mem (X.mem ~disp:(2 * mb) ()));
    ]
  in
  let _, st = run_program ~pkru:(Mpk.allow_only [ 0; 5 ]) ~setup load in
  check_halted st;
  let _, st = run_program ~pkru:(Mpk.allow_only [ 0; 4 ]) ~setup load in
  check_trap X.Trap_out_of_bounds st;
  (* wrpkru changes enforcement mid-program and is charged ~40 cycles. *)
  let m, st =
    run_program ~pkru:(Mpk.allow_only [ 0 ]) ~setup
      [
        X.Mov (X.W64, X.Reg X.RAX, X.Imm (Int64.of_int (Mpk.allow_only [ 0; 5 ])));
        X.Wrpkru;
        X.Mov (X.W32, X.Reg X.RCX, X.Mem (X.mem ~disp:(2 * mb) ()));
      ]
  in
  check_halted st;
  Alcotest.(check int) "pkru writes counted" 1 (Machine.counters m).Machine.pkru_writes

let test_memory_traps () =
  let _, st = run_program [ X.Mov (X.W32, X.Reg X.RAX, X.Mem (X.mem ~disp:(64 * mb) ())) ] in
  check_trap X.Trap_out_of_bounds st;
  let _, st = run_program [ X.Trap X.Trap_indirect_call_type ] in
  check_trap X.Trap_indirect_call_type st

let test_calls_and_stack () =
  let m, st =
    run_program
      [
        X.Mov (X.W64, X.Reg X.RCX, X.Imm 10L);
        X.Push (X.Reg X.RCX);
        X.Call "double";
        X.Alu (X.Add, X.W64, X.Reg X.RSP, X.Imm 8L);
        X.Jmp "after";
        X.Label "double";
        X.Mov (X.W64, X.Reg X.RAX, X.Mem (X.mem ~base:X.RSP ~disp:8 ()));
        X.Alu (X.Add, X.W64, X.Reg X.RAX, X.Reg X.RAX);
        X.Ret;
        X.Label "after";
      ]
  in
  check_halted st;
  Alcotest.(check int64) "call/ret with stack argument" 20L (Machine.get_reg m X.RAX)

let test_indirect_jump () =
  let space = Space.create () in
  (match Space.map space ~addr:mb ~len:(16 * Space.page_size) ~prot:Prot.rw with
  | Ok () -> ()
  | Error e -> failwith e);
  let m = Machine.create space in
  (* The placeholder immediate must encode at the same width as the real
     target so the second layout matches the first. *)
  Machine.load_program m
    [|
      X.Label "entry";
      X.Mov (X.W64, X.Reg X.RAX, X.Imm 0x1_0000_0000L); (* patched below *)
      X.Jmp_reg X.RAX;
      X.Trap X.Trap_unreachable;
      X.Label "target";
      X.Mov (X.W64, X.Reg X.RCX, X.Imm 99L);
      X.Ret;
    |];
  (* Patch the target address now that the label has one. *)
  let target = Machine.label_address m "target" in
  Machine.load_program m
    [|
      X.Label "entry";
      X.Mov (X.W64, X.Reg X.RAX, X.Imm (Int64.of_int target));
      X.Jmp_reg X.RAX;
      X.Trap X.Trap_unreachable;
      X.Label "target";
      X.Mov (X.W64, X.Reg X.RCX, X.Imm 99L);
      X.Ret;
    |];
  Machine.set_reg m X.RSP (Int64.of_int (mb + 4096));
  (match Machine.execute m ~entry:"entry" () with
  | Machine.Halted -> ()
  | _ -> Alcotest.fail "should halt");
  Alcotest.(check int64) "indirect jump reached target" 99L (Machine.get_reg m X.RCX);
  (* An unaligned/invalid code address traps. *)
  Machine.set_reg m X.RSP (Int64.of_int (mb + 4096));
  Machine.start m ~entry:"entry";
  Machine.set_reg m X.RAX 12345L;
  (* jump target overwritten after the mov executes? simpler: jump to a
     non-instruction address directly *)
  let st =
    let m2 = Machine.create space in
    Machine.load_program m2 [| X.Label "entry"; X.Jmp_reg X.RBX; X.Ret |];
    Machine.set_reg m2 X.RSP (Int64.of_int (mb + 4096));
    Machine.set_reg m2 X.RBX 0x1234L;
    Machine.execute m2 ~entry:"entry" ()
  in
  check_trap X.Trap_out_of_bounds st

let test_fuel_and_resume () =
  let space = Space.create () in
  (match Space.map space ~addr:mb ~len:(4 * Space.page_size) ~prot:Prot.rw with
  | Ok () -> ()
  | Error e -> failwith e);
  let m = Machine.create space in
  (* A long counting loop. *)
  Machine.load_program m
    [|
      X.Label "entry";
      X.Mov (X.W64, X.Reg X.RAX, X.Imm 0L);
      X.Label "loop";
      X.Alu (X.Add, X.W64, X.Reg X.RAX, X.Imm 1L);
      X.Cmp (X.W64, X.Reg X.RAX, X.Imm 10000L);
      X.Jcc (X.NE, "loop");
      X.Ret;
    |];
  Machine.set_reg m X.RSP (Int64.of_int (mb + 4096));
  Machine.start m ~entry:"entry";
  (match Machine.run m ~fuel:100 with
  | Machine.Yielded -> ()
  | _ -> Alcotest.fail "should yield on fuel exhaustion");
  (* Epoch-style resume: keep going until done. *)
  let rec finish n =
    if n > 1000 then Alcotest.fail "never finished"
    else match Machine.run m ~fuel:1000 with Machine.Halted -> () | _ -> finish (n + 1)
  in
  finish 0;
  Alcotest.(check int64) "loop completed across epochs" 10000L (Machine.get_reg m X.RAX)

let test_context_switch () =
  let space = Space.create () in
  (match Space.map space ~addr:mb ~len:(4 * Space.page_size) ~prot:Prot.rw with
  | Ok () -> ()
  | Error e -> failwith e);
  let m = Machine.create space in
  Machine.load_program m [| X.Label "entry"; X.Ret |];
  Machine.set_reg m X.RAX 111L;
  Machine.set_seg_base m X.GS 0x1000;
  Machine.set_pkru m (Mpk.allow_only [ 0; 2 ]);
  let ctx = Machine.save_context m in
  Machine.set_reg m X.RAX 222L;
  Machine.set_seg_base m X.GS 0x2000;
  Machine.set_pkru m Mpk.allow_all;
  Machine.restore_context m ctx;
  Alcotest.(check int64) "regs restored" 111L (Machine.get_reg m X.RAX);
  Alcotest.(check int) "gs restored" 0x1000 (Machine.get_seg_base m X.GS);
  Alcotest.(check int) "pkru restored" (Mpk.allow_only [ 0; 2 ]) (Machine.get_pkru m)

let test_counters_and_costs () =
  let m, st =
    run_program
      [
        X.Mov (X.W32, X.Reg X.RAX, X.Mem (X.mem ~disp:(2 * mb) ()));
        X.Mov (X.W32, X.Mem (X.mem ~disp:(2 * mb) ()), X.Reg X.RAX);
        X.Nop;
      ]
  in
  check_halted st;
  let c = Machine.counters m in
  (* one data load + the final ret's pop; one data store + the sentinel push *)
  Alcotest.(check int) "loads" 2 c.Machine.loads;
  Alcotest.(check int) "stores" 2 c.Machine.stores;
  Alcotest.(check bool) "cycles accumulate" true (c.Machine.cycles > 0);
  Alcotest.(check bool) "code bytes fetched" true (c.Machine.code_bytes > 0);
  Alcotest.(check bool) "first touch misses TLB" true (Machine.dtlb_misses m > 0);
  Alcotest.(check bool) "elapsed ns positive" true (Machine.elapsed_ns m > 0.0);
  Machine.reset_counters m;
  Alcotest.(check int) "reset" 0 (Machine.counters m).Machine.cycles

(* machine.mli documents that reset_counters also clears the TLB
   hit/miss counters — pin it. Repeated access to the same page gives
   hits; the first touches give misses. *)
let test_reset_counters_resets_tlb () =
  let m, st =
    run_program
      [
        X.Mov (X.W32, X.Reg X.RAX, X.Mem (X.mem ~disp:(2 * mb) ()));
        X.Mov (X.W32, X.Mem (X.mem ~disp:(2 * mb) ()), X.Reg X.RAX);
        X.Mov (X.W32, X.Reg X.RCX, X.Mem (X.mem ~disp:(2 * mb) ()));
      ]
  in
  check_halted st;
  Alcotest.(check bool) "misses before reset" true (Machine.dtlb_misses m > 0);
  Alcotest.(check bool) "hits before reset" true (Machine.dtlb_hits m > 0);
  Machine.reset_counters m;
  Alcotest.(check int) "misses reset" 0 (Machine.dtlb_misses m);
  Alcotest.(check int) "hits reset" 0 (Machine.dtlb_hits m)

(* [Machine.counters] returns a snapshot: further execution must not
   mutate a record already handed out. *)
let qcheck_counters_snapshot_immutable =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"counters snapshot immutable under further execution" ~count:50
       QCheck.(int_range 1 8)
       (fun reruns ->
         let m, st =
           run_program
             [
               X.Mov (X.W32, X.Reg X.RAX, X.Mem (X.mem ~disp:(2 * mb) ()));
               X.Mov (X.W32, X.Mem (X.mem ~disp:(2 * mb) ()), X.Reg X.RAX);
             ]
         in
         (match st with Machine.Halted -> () | _ -> QCheck.Test.fail_report "setup run did not halt");
         let snap = Machine.counters m in
         let saved =
           ( snap.Machine.instructions,
             snap.Machine.cycles,
             snap.Machine.loads,
             snap.Machine.stores,
             snap.Machine.code_bytes )
         in
         for _ = 1 to reruns do
           Machine.set_reg m X.RSP (Int64.of_int (mb + (8 * Space.page_size)));
           ignore (Machine.execute m ~entry:"entry" ())
         done;
         let live = Machine.counters m in
         live.Machine.instructions > snap.Machine.instructions
         && saved
            = ( snap.Machine.instructions,
                snap.Machine.cycles,
                snap.Machine.loads,
                snap.Machine.stores,
                snap.Machine.code_bytes )))

let test_fsgsbase_fallback_cost () =
  let run_with avail =
    let space = Space.create () in
    (match Space.map space ~addr:mb ~len:(4 * Space.page_size) ~prot:Prot.rw with
    | Ok () -> ()
    | Error e -> failwith e);
    let m = Machine.create ~fsgsbase_available:avail space in
    Machine.load_program m [| X.Label "entry"; X.Wrgsbase X.RAX; X.Ret |];
    Machine.set_reg m X.RSP (Int64.of_int (mb + 4096));
    ignore (Machine.execute m ~entry:"entry" ());
    (Machine.counters m).Machine.cycles
  in
  Alcotest.(check bool) "arch_prctl fallback is much slower (sec 4.1)" true
    (run_with false > (10 * run_with true))

(* A direct branch to a label the program never defines is rejected when
   the program is installed, not when (or if) the branch runs. *)
let test_undefined_label_rejected () =
  let m = Machine.create (Space.create ()) in
  Alcotest.check_raises "undefined jump target"
    (Invalid_argument "Machine.load_program: undefined label nowhere") (fun () ->
      Machine.load_program m [| X.Label "entry"; X.Jmp "nowhere" |])

let tests =
  [
    Harness.case "mov widths / zero extension" test_mov_zero_extension;
    Harness.case "flags and branches" test_flags_and_branches;
    Harness.case "arithmetic" test_arithmetic;
    Harness.case "division" test_division;
    Harness.case "segment + addr32" test_segment_and_addr32;
    Harness.case "pkru enforcement" test_pkru_enforcement;
    Harness.case "memory traps" test_memory_traps;
    Harness.case "calls and stack" test_calls_and_stack;
    Harness.case "indirect jumps" test_indirect_jump;
    Harness.case "fuel and resume" test_fuel_and_resume;
    Harness.case "context save/restore" test_context_switch;
    Harness.case "counters" test_counters_and_costs;
    Harness.case "reset_counters clears TLB counters" test_reset_counters_resets_tlb;
    qcheck_counters_snapshot_immutable;
    Harness.case "fsgsbase fallback cost" test_fsgsbase_fallback_cost;
    Harness.case "load_program rejects undefined labels" test_undefined_label_rejected;
  ]
