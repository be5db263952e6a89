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

(* An addressing expression with its registers (-1 = none), scale and
   displacement resolved at translation time. [mask] is the 32-bit
   address-size truncation (or -1L); [seg] picks the segment base added
   to the sum: 0 none, 1 fs, 2 gs (a native base is gs; a Lea adds none). *)
type ea = { base : int; index : int; scale : int64; disp : int64; mask : int64; seg : int }

let resolve_ea ?(lea = false) (m : mem) =
  let reg = function Some r -> gpr_index r | None -> -1 in
  {
    base = reg m.base;
    index = reg (Option.map fst m.index);
    scale = (match m.index with Some (_, s) -> Int64.of_int (scale_factor s) | None -> 0L);
    disp = Int64.of_int m.disp;
    mask = (if m.addr32 && (lea || not m.native_base) then 0xFFFFFFFFL else -1L);
    seg =
      (if lea then 0
       else if m.native_base then 2
       else match m.seg with None -> 0 | Some FS -> 1 | Some GS -> 2);
  }

(* The address sum, which is also what a Lea produces. *)
let[@inline] ea_sum t e =
  let base = if e.base >= 0 then reg_get t e.base else 0L in
  let index = if e.index >= 0 then Int64.mul (reg_get t e.index) e.scale else 0L in
  Int64.logand (Int64.add (Int64.add base index) e.disp) e.mask

let[@inline] ea_addr t e =
  let segv = match e.seg with 0 -> 0 | 1 -> t.fs_base | _ -> t.gs_base in
  Int64.to_int (Int64.add (Int64.of_int segv) (ea_sum t e)) land addr_mask_47

(* Register access and flags at a width given by its mask [m] and sign
   bit [sb]. The flags are stated here apart from [Decode]'s setters so
   that Lockstep keeps comparing two independent statements. *)
let sign_bit_of w = Int64.shift_left 1L (width_bits w - 1)
let[@inline] rget t m i = Int64.logand (reg_get t i) m
let[@inline] rset t m i v = reg_set t i (Int64.logand v m)

let[@inline] logic_flags t m sb r =
  t.zf <- Int64.logand r m = 0L;
  t.sf <- Int64.logand r sb <> 0L;
  t.cf <- false;
  t.of_ <- false

(* Flags of [r = a + b], or of [r = a - b] when [sub]. *)
let[@inline] arith_flags t ~sub m sb a b r =
  let ua = Int64.logand a m and sa = Int64.logand a sb <> 0L and sr = Int64.logand r sb <> 0L in
  t.zf <- Int64.logand r m = 0L;
  t.sf <- sr;
  t.cf <-
    (if sub then Int64.unsigned_compare ua (Int64.logand b m) < 0
     else Int64.unsigned_compare (Int64.logand r m) ua < 0);
  t.of_ <- sr <> sa && (sa = (Int64.logand b sb <> 0L)) <> sub

(* One ALU op and its flags; [Cmp] is a [Sub] and [Test] an [And] whose
   result is dropped. *)
let[@inline] alu t op m sb a b =
  match op with
  | Add ->
      let r = Int64.add a b in
      arith_flags t ~sub:false m sb a b r;
      r
  | Sub ->
      let r = Int64.sub a b in
      arith_flags t ~sub:true m sb a b r;
      r
  | And | Or | Xor ->
      let r =
        match op with And -> Int64.logand a b | Or -> Int64.logor a b | _ -> Int64.logxor a b
      in
      logic_flags t m sb r;
      r

(* Generic operand access: a closure per operand, each value crossing it
   boxed. Only the cold shapes below use it. *)
let compile_read_reg w r =
  let i = gpr_index r and m = mask_of_width w in
  fun t -> rget t m i

(* x86 semantics: 32-bit writes zero-extend; 8/16-bit writes preserve the
   upper bits of the destination. *)
let compile_write_reg w r =
  let i = gpr_index r and m = mask_of_width w in
  match w with
  | W64 | W32 -> fun t v -> rset t m i v
  | W16 | W8 ->
      fun t v ->
        reg_set t i (Int64.logor (Int64.logand (reg_get t i) (Int64.lognot m)) (Int64.logand v m))

let compile_read w op =
  match op with
  | Reg r -> compile_read_reg w r
  | Imm i ->
      let v = Int64.logand i (mask_of_width w) in
      fun _ -> v
  | Mem m ->
      let e = resolve_ea m in
      fun t -> load_mem t w (ea_addr t e)

let compile_write w op =
  match op with
  | Reg r -> compile_write_reg w r
  | Mem m ->
      let e = resolve_ea m in
      fun t v -> store_mem t w (ea_addr t e) v
  | Imm _ -> fun _ _ -> invalid_arg "Machine: immediate as destination"

(* Shape-specialised bodies for the hot W32/W64 forms, plus stores and
   Movzx loads of any width: each reads, operates and writes back inside
   one closure through the inlined register and [Decode] memory
   primitives, so no boxed int64 crosses a call. [None] leaves the op to
   [compile_body]'s generic arms: partial W8/W16 writes, Div, Bitcnt,
   Cmovcc, vectors and every other rare shape. *)
let compile_shaped (instr : instr) =
  let wide = function W32 | W64 -> true | W8 | W16 -> false in
  (* Alu, Cmp and Test; [write] stores the result back to [dst]. *)
  let alu_shape op w ~write dst src =
    let m = mask_of_width w and sb = sign_bit_of w in
    match (dst, src) with
    | Reg d, Reg s ->
        let d = gpr_index d and s = gpr_index s in
        Some
          (fun t ->
            let r = alu t op m sb (rget t m d) (rget t m s) in
            if write then rset t m d r)
    | Reg d, Imm i ->
        let d = gpr_index d and v = Int64.logand i m in
        Some
          (fun t ->
            let r = alu t op m sb (rget t m d) v in
            if write then rset t m d r)
    | Reg d, Mem e ->
        let d = gpr_index d and e = resolve_ea e in
        Some
          (fun t ->
            let r = alu t op m sb (rget t m d) (load_mem t w (ea_addr t e)) in
            if write then rset t m d r)
    | Mem e, Reg s ->
        let s = gpr_index s and e = resolve_ea e in
        Some
          (fun t ->
            let a = ea_addr t e in
            let r = alu t op m sb (load_mem t w a) (rget t m s) in
            if write then store_mem t w a r)
    | Mem e, Imm i ->
        let v = Int64.logand i m and e = resolve_ea e in
        Some
          (fun t ->
            let a = ea_addr t e in
            let r = alu t op m sb (load_mem t w a) v in
            if write then store_mem t w a r)
    | _ -> None
  in
  match instr with
  | Alu (op, w, dst, src) when wide w -> alu_shape op w ~write:true dst src
  | Cmp (w, a, b) when wide w -> alu_shape Sub w ~write:false a b
  | Test (w, a, b) when wide w -> alu_shape And w ~write:false a b
  | Mov (w, Reg d, src) when wide w -> (
      let d = gpr_index d and m = mask_of_width w in
      match src with
      | Reg s ->
          let s = gpr_index s in
          Some (fun t -> rset t m d (reg_get t s))
      | Imm i ->
          let v = Int64.logand i m in
          Some (fun t -> reg_set t d v)
      | Mem e ->
          let e = resolve_ea e in
          Some (fun t -> reg_set t d (load_mem t w (ea_addr t e))))
  (* A store truncates to its width itself, so it has no partial write. *)
  | Mov (w, Mem e, Reg s) ->
      let s = gpr_index s and e = resolve_ea e in
      Some (fun t -> store_mem t w (ea_addr t e) (reg_get t s))
  | Mov (w, Mem e, Imm i) ->
      let e = resolve_ea e in
      Some (fun t -> store_mem t w (ea_addr t e) i)
  | Movzx (dw, sw, d, Mem e) when wide dw ->
      let d = gpr_index d and e = resolve_ea e in
      Some (fun t -> reg_set t d (load_mem t sw (ea_addr t e)))
  | Lea (w, d, e) when wide w ->
      let d = gpr_index d and m = mask_of_width w and e = resolve_ea ~lea:true e in
      Some (fun t -> rset t m d (ea_sum t e))
  | Shift (op, w, Reg d, count) when wide w ->
      let d = gpr_index d and m = mask_of_width w and sb = sign_bit_of w in
      let nmask = width_bits w - 1 and rcx = gpr_index RCX in
      let imm = match count with Count_imm n -> n land nmask | Count_cl -> -1 in
      Some
        (fun t ->
          let n = if imm >= 0 then imm else Int64.to_int (reg_get t rcx) land nmask in
          let r = shift_value w op (rget t m d) n in
          logic_flags t m sb r;
          rset t m d r)
  | Imul (w, d, src) when wide w -> (
      let d = gpr_index d and m = mask_of_width w in
      match src with
      | Reg s ->
          let s = gpr_index s in
          Some (fun t -> rset t m d (Int64.mul (rget t m d) (rget t m s)))
      | Mem e ->
          let e = resolve_ea e in
          Some (fun t -> rset t m d (Int64.mul (rget t m d) (load_mem t w (ea_addr t e))))
      | Imm _ -> None)
  | Push (Reg s) ->
      let s = gpr_index s in
      Some (fun t -> push64 t (reg_get t s))
  | Push (Imm i) -> Some (fun t -> push64 t i)
  | _ -> None

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
  match compile_shaped instr with
  | Some body -> body
  | None -> (
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
      let e = resolve_ea ~lea:true m and wr = compile_write_reg w dst in
      fun t -> wr t (ea_sum t e)
  | Alu (op, w, dst, src) ->
      let rd = compile_read w dst and rs = compile_read w src and wr = compile_write w dst in
      let m = mask_of_width w and sb = sign_bit_of w in
      fun t ->
        let a = rd t in
        let b = rs t in
        wr t (alu t op m sb a b)
  | Shift (op, w, dst, count) ->
      let rd = compile_read w dst and wr = compile_write w dst in
      let m = mask_of_width w and sb = sign_bit_of w in
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
        logic_flags t m sb r;
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
      let m = mask_of_width w and sb = sign_bit_of w in
      fun t ->
        let a = rd t in
        let r = Int64.neg a in
        arith_flags t ~sub:true m sb 0L a r;
        wr t r
  | Not (w, op) ->
      let rd = compile_read w op and wr = compile_write w op in
      fun t -> wr t (Int64.lognot (rd t))
  | Cmp (w, a, b) | Test (w, a, b) ->
      let ra = compile_read w a and rb = compile_read w b in
      let op = match instr with Cmp _ -> Sub | _ -> And in
      let m = mask_of_width w and sb = sign_bit_of w in
      fun t ->
        let va = ra t in
        let vb = rb t in
        ignore (alu t op m sb va vb)
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
      let e = resolve_ea m and vi = vreg_index v in
      fun t -> vload_data t vi (ea_addr t e)
  | Vstore (m, v) ->
      let e = resolve_ea m and vi = vreg_index v in
      fun t -> vstore_data t (ea_addr t e) vi
  | Vzero v ->
      let vi = vreg_index v in
      fun t -> Bytes.fill t.vregs.(vi) 0 16 '\000'
  | Vdup8 (v, b) ->
      let vi = vreg_index v and c = Char.chr (b land 0xFF) in
      fun t -> Bytes.fill t.vregs.(vi) 0 16 c
  | Hostcall n -> fun t -> t.hostcall t n
  | Trap k -> fun _ -> raise (Trap_exn k))

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
