(* Translation for tiers 1 and 2. [compile_body] is the one per-op
   compiler of both translated tiers, and [fixed_cycles] the one table of
   their fixed charges. [install] compiles every instruction's body once,
   wraps it into a tier-1 dispatch slot ([compile_instr]), and partitions
   the program into classified basic blocks that [Tier] fuses from the
   same bodies. Both tiers must reproduce [Decode.step]'s observable
   behavior exactly — same counters, same charge order, same traps —
   which {!Lockstep} checks; [step] keeps its own semantics so that the
   check is not this table compared with itself. *)

open Sfi_x86.Ast
open Mstate
open Decode
module Encode = Sfi_x86.Encode

let compile_read_reg w r =
  let i = gpr_index r in
  match w with
  | W64 -> fun t -> reg_get t i
  | W32 -> fun t -> Int64.logand (reg_get t i) 0xFFFFFFFFL
  | W16 -> fun t -> Int64.logand (reg_get t i) 0xFFFFL
  | W8 -> fun t -> Int64.logand (reg_get t i) 0xFFL

let compile_write_reg w r =
  let i = gpr_index r in
  match w with
  | W64 -> fun t v -> reg_set t i v
  | W32 -> fun t v -> reg_set t i (Int64.logand v 0xFFFFFFFFL)
  | W16 ->
      fun t v ->
        reg_set t i
          (Int64.logor (Int64.logand (reg_get t i) (Int64.lognot 0xFFFFL)) (Int64.logand v 0xFFFFL))
  | W8 ->
      fun t v ->
        reg_set t i
          (Int64.logor (Int64.logand (reg_get t i) (Int64.lognot 0xFFL)) (Int64.logand v 0xFFL))

let compile_index = function
  | Some (r, s) ->
      let i = gpr_index r and f = Int64.of_int (scale_factor s) in
      fun t -> Int64.mul (reg_get t i) f
  | None -> fun _ -> 0L

let compile_ea (m : mem) =
  let base_i = match m.base with Some r -> gpr_index r | None -> -1 in
  let index_part = compile_index m.index in
  let disp = Int64.of_int m.disp in
  let mask32 = m.addr32 && not m.native_base in
  let native = m.native_base in
  let seg = m.seg in
  fun t ->
    let base = if base_i >= 0 then reg_get t base_i else 0L in
    let sum = Int64.add (Int64.add base (index_part t)) disp in
    let sum = if mask32 then Int64.logand sum 0xFFFFFFFFL else sum in
    let segv =
      if native then t.gs_base else match seg with Some s -> get_seg_base t s | None -> 0
    in
    Int64.to_int (Int64.add (Int64.of_int segv) sum) land addr_mask_47

let compile_lea (m : mem) =
  let base_i = match m.base with Some r -> gpr_index r | None -> -1 in
  let index_part = compile_index m.index in
  let disp = Int64.of_int m.disp in
  let mask32 = m.addr32 in
  fun t ->
    let base = if base_i >= 0 then reg_get t base_i else 0L in
    let sum = Int64.add (Int64.add base (index_part t)) disp in
    if mask32 then Int64.logand sum 0xFFFFFFFFL else sum

let compile_read w op =
  match op with
  | Reg r -> compile_read_reg w r
  | Imm i ->
      let v =
        match w with
        | W64 -> i
        | W32 -> Int64.logand i 0xFFFFFFFFL
        | W16 -> Int64.logand i 0xFFFFL
        | W8 -> Int64.logand i 0xFFL
      in
      fun _ -> v
  | Mem m ->
      let ea = compile_ea m in
      fun t -> load_mem t w (ea t)

let compile_write w op =
  match op with
  | Reg r -> compile_write_reg w r
  | Mem m ->
      let ea = compile_ea m in
      fun t v -> store_mem t w (ea t) v
  | Imm _ -> fun _ _ -> invalid_arg "Machine: immediate as destination"

(* The cycle charge an op issues unconditionally, before any trap point —
   everything except dynamic charges (TLB walk, dcache miss, load/store
   latency, the conditional taken-branch adder). Tier 1 charges it per
   dispatch; tier 2 batches it at block entry. Depends only on [t.cost]
   and [t.fsgsbase_available], both immutable, so it folds at install or
   promotion time. *)
let fixed_cycles t (i : instr) =
  let c = t.cost in
  match i with
  | Label _ | Trap _ -> 0
  | Nop | Mov _ | Movzx _ | Movsx _ | Alu _ | Shift _ | Bitcnt _ | Cqo _ | Neg _ | Not _ | Cmp _
  | Test _ | Setcc _ | Cmovcc _ | Rdfsbase _ | Rdgsbase _ | Rdpkru ->
      c.Cost.alu_cycles
  | Lea _ -> c.Cost.lea_cycles
  | Imul _ -> c.Cost.mul_cycles
  | Div _ -> c.Cost.div_cycles
  | Jmp _ -> c.Cost.branch_cycles + c.Cost.taken_branch_cycles
  | Jcc _ -> c.Cost.branch_cycles
  | Jmp_reg _ -> c.Cost.indirect_branch_cycles
  | Call _ -> c.Cost.call_ret_cycles
  | Call_reg _ -> c.Cost.call_ret_cycles + c.Cost.indirect_branch_cycles
  | Ret -> c.Cost.call_ret_cycles
  | Push _ -> c.Cost.store_cycles
  | Pop _ -> c.Cost.load_cycles
  | Wrfsbase _ | Wrgsbase _ ->
      if t.fsgsbase_available then c.Cost.wrsegbase_cycles else c.Cost.wrsegbase_syscall_cycles
  | Wrpkru -> c.Cost.wrpkru_cycles
  | Vload _ | Vstore _ | Vzero _ | Vdup8 _ -> c.Cost.vector_cycles
  | Hostcall _ -> c.Cost.hostcall_cycles

(* Ops whose body establishes the successor pc itself. Every other body
   falls through and leaves the pc write to its caller. *)
let is_control = function
  | Jmp _ | Jcc _ | Jmp_reg _ | Call _ | Call_reg _ | Ret -> true
  | _ -> false

(* The one per-op compiler of the translated tiers: semantics plus dynamic
   charges, with operands, widths, branch targets and return addresses
   pre-resolved. The prologue (retire, fetch) and the fixed charge are the
   caller's. *)
let compile_body ~targets ~ret_addrs ~index_of_off ~code_base ~idx (instr : instr) =
  let next = idx + 1 in
  let tgt = targets.(idx) in
  let ret_addr = ret_addrs.(idx) in
  match instr with
  | Label _ | Nop -> fun _ -> ()
  | Mov (w, dst, src) ->
      let rd = compile_read w src and wr = compile_write w dst in
      fun t -> wr t (rd t)
  | Movzx (dw, sw, dst, src) ->
      let rd = compile_read sw src and wr = compile_write_reg dw dst in
      fun t -> wr t (rd t)
  | Movsx (dw, sw, dst, src) ->
      let rd = compile_read sw src and wr = compile_write_reg dw dst in
      fun t -> wr t (sext sw (rd t))
  | Lea (w, dst, m) ->
      let lv = compile_lea m and wr = compile_write_reg w dst in
      fun t -> wr t (lv t)
  | Alu (op, w, dst, src) ->
      let rd = compile_read w dst and rs = compile_read w src and wr = compile_write w dst in
      let f =
        match op with
        | Add -> Int64.add
        | Sub -> Int64.sub
        | And -> Int64.logand
        | Or -> Int64.logor
        | Xor -> Int64.logxor
      in
      fun t ->
        let a = rd t and b = rs t in
        let r = f a b in
        (match op with
        | Add -> set_add_flags t w a b r
        | Sub -> set_sub_flags t w a b r
        | And | Or | Xor -> set_logic_flags t w r);
        wr t r
  | Shift (op, w, dst, count) ->
      let rd = compile_read w dst and wr = compile_write w dst in
      let rcx = gpr_index RCX in
      let get_n =
        match count with
        | Count_imm n -> fun _ -> n
        | Count_cl -> fun t -> Int64.to_int (Int64.logand (reg_get t rcx) 0x3FL)
      in
      let nmask = width_bits w - 1 in
      fun t ->
        let n = get_n t land nmask in
        let a = rd t in
        let r = shift_value w op a n in
        set_logic_flags t w r;
        wr t r
  | Imul (w, dst, src) ->
      let rdd = compile_read_reg w dst and rs = compile_read w src in
      let wr = compile_write_reg w dst in
      fun t ->
        let b = rs t in
        wr t (Int64.mul (rdd t) b)
  | Bitcnt (k, w, dst, src) ->
      let rs = compile_read w src and wr = compile_write_reg w dst in
      let m = mask_of_width w in
      fun t ->
        let v = Int64.logand (rs t) m in
        wr t (Int64.of_int (bitcnt_value k w v))
  | Div (w, signed, src) ->
      let rs = compile_read w src in
      fun t -> exec_div_core t w signed ~read:rs
  | Cqo w ->
      fun t ->
        let a = sext w (read_reg_w t w RAX) in
        write_reg_w t w RDX (if Int64.compare a 0L < 0 then -1L else 0L)
  | Neg (w, op) ->
      let rd = compile_read w op and wr = compile_write w op in
      fun t ->
        let a = rd t in
        let r = Int64.neg a in
        set_sub_flags t w 0L a r;
        wr t r
  | Not (w, op) ->
      let rd = compile_read w op and wr = compile_write w op in
      fun t -> wr t (Int64.lognot (rd t))
  | Cmp (w, a, b) ->
      let ra = compile_read w a and rb = compile_read w b in
      fun t ->
        let va = ra t and vb = rb t in
        set_sub_flags t w va vb (Int64.sub va vb)
  | Test (w, a, b) ->
      let ra = compile_read w a and rb = compile_read w b in
      fun t ->
        let va = ra t and vb = rb t in
        set_logic_flags t w (Int64.logand va vb)
  | Setcc (c, r) ->
      let i = gpr_index r in
      fun t -> reg_set t i (if eval_cond t c then 1L else 0L)
  | Cmovcc (c, w, dst, src) ->
      let rs = compile_read w src in
      let rdd = compile_read_reg w dst and wr = compile_write_reg w dst in
      fun t -> if eval_cond t c then wr t (rs t) else if w = W32 then wr t (rdd t)
  | Jmp _ ->
      (* The taken-branch adder is unconditional here, so it lives in the
         fixed charge. *)
      fun t -> t.pc <- tgt
  | Jcc (c, _) ->
      fun t ->
        if eval_cond t c then begin
          charge t t.cost.Cost.taken_branch_cycles;
          t.pc <- tgt
        end
        else t.pc <- next
  | Jmp_reg r ->
      let i = gpr_index r in
      fun t -> jump_via index_of_off code_base t (Int64.to_int (reg_get t i) land addr_mask_47)
  | Call _ ->
      fun t ->
        push64 t ret_addr;
        t.pc <- tgt
  | Call_reg r ->
      let i = gpr_index r in
      fun t ->
        push64 t ret_addr;
        jump_via index_of_off code_base t (Int64.to_int (reg_get t i) land addr_mask_47)
  | Ret ->
      fun t ->
        let addr = pop64 t in
        if addr = halt_sentinel then raise Halt_exn;
        jump_via index_of_off code_base t (Int64.to_int addr land addr_mask_47)
  | Push op ->
      let rd = compile_read W64 op in
      fun t -> push64 t (rd t)
  | Pop r ->
      let i = gpr_index r in
      fun t -> reg_set t i (pop64 t)
  | Wrfsbase r | Wrgsbase r ->
      let i = gpr_index r in
      let is_fs = match instr with Wrfsbase _ -> true | _ -> false in
      fun t ->
        t.counters.seg_base_writes <- t.counters.seg_base_writes + 1;
        let v = Int64.to_int (reg_get t i) land addr_mask_47 in
        if is_fs then t.fs_base <- v else t.gs_base <- v
  | Rdfsbase r ->
      let i = gpr_index r in
      fun t -> reg_set t i (Int64.of_int t.fs_base)
  | Rdgsbase r ->
      let i = gpr_index r in
      fun t -> reg_set t i (Int64.of_int t.gs_base)
  | Wrpkru ->
      let rax = gpr_index RAX in
      fun t ->
        t.counters.pkru_writes <- t.counters.pkru_writes + 1;
        t.pkru <- Int64.to_int (Int64.logand (reg_get t rax) 0xFFFFFFFFL);
        invalidate_pcache t;
        if Sfi_trace.Trace.enabled t.trace then Sfi_trace.Trace.pkru_write t.trace ~value:t.pkru
  | Rdpkru ->
      let rax = gpr_index RAX and rdx = gpr_index RDX in
      fun t ->
        reg_set t rax (Int64.of_int t.pkru);
        reg_set t rdx 0L
  | Vload (v, m) ->
      let ea = compile_ea m and vi = vreg_index v in
      fun t -> vload_data t vi (ea t)
  | Vstore (m, v) ->
      let ea = compile_ea m and vi = vreg_index v in
      fun t -> vstore_data t (ea t) vi
  | Vzero v ->
      let vi = vreg_index v in
      fun t -> Bytes.fill t.vregs.(vi) 0 16 '\000'
  | Vdup8 (v, b) ->
      let vi = vreg_index v and c = Char.chr (b land 0xFF) in
      fun t -> Bytes.fill t.vregs.(vi) 0 16 c
  | Hostcall n -> fun t -> t.hostcall t n
  | Trap k -> fun _ -> raise (Trap_exn k)

(* Tier 1: one dispatch slot per instruction, charged in [Decode.step]'s
   order — retire, fetch, fixed cycles, then the body. Labels retire
   nothing and only advance the pc. *)
let compile_instr ~len ~fixed ~next instr body =
  match instr with
  | Label _ -> fun t -> t.pc <- next
  | _ when is_control instr ->
      fun t ->
        t.counters.instructions <- t.counters.instructions + 1;
        charge_frontend t len;
        charge t fixed;
        body t
  | _ ->
      fun t ->
        t.counters.instructions <- t.counters.instructions + 1;
        charge_frontend t len;
        charge t fixed;
        body t;
        t.pc <- next

(* --- Basic-block discovery and classification --- *)

(* Instructions that end a basic block. Hostcall/Wrpkru fall through but
   terminate anyway so their hazard/bypass class does not poison the
   surrounding straight-line code. *)
let is_terminator = function
  | Jmp _ | Jcc _ | Jmp_reg _ | Call _ | Call_reg _ | Ret | Hostcall _ | Trap _ | Wrpkru ->
      true
  | _ -> false

let class_rank = function Bpure -> 0 | Bload -> 1 | Bhazard -> 2 | Bbypass -> 3
let class_max a b = if class_rank a >= class_rank b then a else b

let instr_class (i : instr) =
  match i with
  | Label _ | Nop | Lea _ | Cqo _ | Setcc _ | Rdfsbase _ | Rdgsbase _ | Rdpkru | Wrfsbase _
  | Wrgsbase _ | Vzero _ | Vdup8 _ ->
      Bpure
  | Mov (_, dst, src) -> (
      match (dst, src) with Mem _, _ -> Bhazard | _, Mem _ -> Bload | _ -> Bpure)
  | Movzx (_, _, _, src) | Movsx (_, _, _, src) | Imul (_, _, src) | Bitcnt (_, _, _, src)
  | Cmovcc (_, _, _, src) -> (
      match src with Mem _ -> Bload | _ -> Bpure)
  | Alu (_, _, dst, src) -> (
      match (dst, src) with Mem _, _ -> Bhazard | _, Mem _ -> Bload | _ -> Bpure)
  | Shift (_, _, dst, _) | Neg (_, dst) | Not (_, dst) -> (
      match dst with Mem _ -> Bhazard | _ -> Bpure)
  | Cmp (_, a, b) | Test (_, a, b) -> (
      match (a, b) with Mem _, _ | _, Mem _ -> Bload | _ -> Bpure)
  (* Division can trap even register-to-register; the rollback side table
     handles it, so it rides in the no-store class. *)
  | Div _ | Pop _ | Ret | Vload _ -> Bload
  | Jmp _ | Jcc _ -> Bpure
  | Push _ | Vstore _ | Call _ | Call_reg _ | Jmp_reg _ | Wrpkru -> Bhazard
  | Hostcall _ | Trap _ -> Bbypass

let analyze_blocks program =
  let n = Array.length program in
  let leader = Array.make (n + 1) false in
  if n > 0 then leader.(0) <- true;
  Array.iteri
    (fun idx i ->
      (match i with Label _ -> leader.(idx) <- true | _ -> ());
      if is_terminator i && idx + 1 < n then leader.(idx + 1) <- true)
    program;
  let blocks = ref [] in
  let block_of = Array.make n (-1) in
  let bi = ref 0 in
  let i = ref 0 in
  while !i < n do
    let s = !i in
    let j = ref (s + 1) in
    while !j < n && not leader.(!j) do
      incr j
    done;
    let cls = ref Bpure in
    for k = s to !j - 1 do
      cls := class_max !cls (instr_class program.(k));
      block_of.(k) <- !bi
    done;
    blocks := { b_start = s; b_len = !j - s; b_class = !cls } :: !blocks;
    incr bi;
    i := !j
  done;
  (Array.of_list (List.rev !blocks), block_of)

(* --- Program installation (the body of [Machine.load_program]) --- *)

let install t program =
  let offsets = Encode.layout program in
  let labels = Hashtbl.create 64 in
  Array.iteri
    (fun idx i ->
      match i with
      | Label l ->
          if Hashtbl.mem labels l then invalid_arg ("Machine.load_program: duplicate label " ^ l);
          Hashtbl.replace labels l idx
      | _ -> ())
    program;
  let n = Array.length program in
  (* One length pass ([layout]); each length is the gap to the next offset. *)
  let code_len = if n = 0 then 0 else offsets.(n - 1) + Encode.instr_length program.(n - 1) in
  let next_off idx = if idx + 1 < n then offsets.(idx + 1) else code_len in
  let lengths = Array.init n (fun idx -> next_off idx - offsets.(idx)) in
  (* First instruction at a given byte offset wins (labels share the offset
     of the instruction that follows them). *)
  let index_of_off = Array.make (code_len + 1) (-1) in
  Array.iteri (fun idx off -> if index_of_off.(off) < 0 then index_of_off.(off) <- idx) offsets;
  let targets =
    Array.map
      (function
        | Jmp l | Jcc (_, l) | Call l -> (
            match Hashtbl.find_opt labels l with
            | Some i -> i
            | None -> invalid_arg ("Machine.load_program: undefined label " ^ l))
        | _ -> -1)
      program
  in
  let ret_addrs = Array.init n (fun idx -> Int64.of_int (t.code_base + next_off idx)) in
  let bodies =
    Array.mapi
      (fun idx i -> compile_body ~targets ~ret_addrs ~index_of_off ~code_base:t.code_base ~idx i)
      program
  in
  (* exec.(n) is the off-end sentinel: running past the last instruction is
     an out-of-bounds fetch, exactly as [step] treats pc >= n. *)
  let exec = Array.make (n + 1) (fun _ -> raise (Trap_exn Trap_out_of_bounds)) in
  for idx = 0 to n - 1 do
    let i = program.(idx) in
    exec.(idx) <-
      compile_instr ~len:lengths.(idx) ~fixed:(fixed_cycles t i) ~next:(idx + 1) i bodies.(idx)
  done;
  let blocks, block_of = analyze_blocks program in
  t.loaded <-
    Some
      {
        program;
        offsets;
        labels;
        code_len;
        lengths;
        targets;
        ret_addrs;
        index_of_off;
        bodies;
        exec;
        blocks;
        block_of;
        sb_len = Array.make (n + 1) 0;
        sb_exec = Array.make (n + 1) (fun _ -> ());
        promoted = 0;
      };
  (* Samples collected against the replaced program describe instruction
     indices that no longer mean anything; they are dropped, and the loss
     is visible through [prof_dropped] whether or not the profiler is
     still armed. The histogram is resized for the new program (index n =
     off-end sentinel) when armed, and cleared when disarmed so stale
     counts can never be attributed to the new program's labels. *)
  let stale = Array.fold_left ( + ) 0 t.prof_counts in
  if stale > 0 then t.prof_dropped <- t.prof_dropped + stale;
  if t.prof_interval > 0 then t.prof_counts <- Array.make (n + 1) 0
  else if Array.length t.prof_counts > 0 then t.prof_counts <- [||];
  t.pc <- 0
