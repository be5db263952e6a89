(* Decode/execute primitives shared by every engine: effective addresses,
   TLB/MPK-checked memory access with the page/dcache fast paths, operand
   evaluation, flags, and the pure value helpers — plus [step], the
   AST-matching reference interpreter that defines observable behavior.
   The translated tiers ([Translate]'s shared op bodies, run per slot by
   tier 1 and fused into superblocks by [Tier]) must reproduce everything
   here bit-identically. [step] states every op's semantics and charges
   on its own, so Lockstep compares two independent statements. *)

open Sfi_x86.Ast
open Mstate
module Space = Sfi_vmem.Space
module Tlb = Sfi_vmem.Tlb
module Mpk = Sfi_vmem.Mpk

(* --- Effective addresses --- *)

let addr_mask_47 = (1 lsl 47) - 1

let effective_address t (m : mem) =
  let base = match m.base with Some r -> reg_get t (gpr_index r) | None -> 0L in
  let index =
    match m.index with
    | Some (r, s) -> Int64.mul (reg_get t (gpr_index r)) (Int64.of_int (scale_factor s))
    | None -> 0L
  in
  let sum = Int64.add (Int64.add base index) (Int64.of_int m.disp) in
  let sum = if m.addr32 && not m.native_base then Int64.logand sum 0xFFFFFFFFL else sum in
  let seg =
    if m.native_base then t.gs_base
    else match m.seg with Some s -> get_seg_base t s | None -> 0
  in
  Int64.to_int (Int64.add (Int64.of_int seg) sum) land addr_mask_47

(* Lea computes the address expression but never adds the segment base and
   never touches memory. *)
let lea_value t (m : mem) =
  let base = match m.base with Some r -> reg_get t (gpr_index r) | None -> 0L in
  let index =
    match m.index with
    | Some (r, s) -> Int64.mul (reg_get t (gpr_index r)) (Int64.of_int (scale_factor s))
    | None -> 0L
  in
  let sum = Int64.add (Int64.add base index) (Int64.of_int m.disp) in
  if m.addr32 then Int64.logand sum 0xFFFFFFFFL else sum

(* --- Memory access with TLB and MPK --- *)

(* TLB payload: bits 0-1 = read/write permission, bits 3+ = pkey. *)
let payload_of prot key =
  (if (prot : Sfi_vmem.Prot.t).read then 1 else 0)
  lor (if prot.Sfi_vmem.Prot.write then 2 else 0)
  lor (key lsl 3)

let check_tlb_generation t =
  let g = Space.generation t.space in
  if g <> t.space_generation then begin
    Tlb.flush t.tlb;
    t.space_generation <- g;
    invalidate_pcache t
  end

(* Full TLB walk for [page]; counter effects identical to the pre-cache
   interpreter. Returns the TLB slot plus both access verdicts (protection
   AND current PKRU) so the fast path can reuse them. *)
let check_page_slow t ~page ~write =
  match Tlb.lookup_slot t.tlb ~page with
  | Some (payload, slot) ->
      let key = payload lsr 3 in
      let read_ok = payload land 1 <> 0 && Mpk.allows t.pkru ~key ~write:false in
      let write_ok = payload land 2 <> 0 && Mpk.allows t.pkru ~key ~write:true in
      if not (if write then write_ok else read_ok) then raise (Trap_exn Trap_out_of_bounds);
      (slot, read_ok, write_ok)
  | None -> (
      t.counters.cycles <- t.counters.cycles + Tlb.walk_cost t.tlb;
      match Space.page_info t.space ~addr:(page * Space.page_size) with
      | None -> raise (Trap_exn Trap_out_of_bounds)
      | Some (prot, key) ->
          let slot = Tlb.fill_slot t.tlb ~page ~payload:(payload_of prot key) in
          let read_ok = prot.Sfi_vmem.Prot.read && Mpk.allows t.pkru ~key ~write:false in
          let write_ok = prot.Sfi_vmem.Prot.write && Mpk.allows t.pkru ~key ~write:true in
          if not (if write then write_ok else read_ok) then raise (Trap_exn Trap_out_of_bounds);
          (slot, read_ok, write_ok))

let touch_dcache t addr =
  let line = addr lsr 6 in
  let idx = line land lc_mask in
  if Array.unsafe_get t.lc_tag idx = line
     && Tlb.holds t.dcache ~slot:(Array.unsafe_get t.lc_slot idx) ~page:line
  then Tlb.touch t.dcache ~slot:(Array.unsafe_get t.lc_slot idx)
  else begin
    (match Tlb.lookup_slot t.dcache ~page:line with
    | Some (_, slot) -> Array.unsafe_set t.lc_slot idx slot
    | None ->
        t.counters.cycles <- t.counters.cycles + t.cost.Cost.dcache_miss_cycles;
        Array.unsafe_set t.lc_slot idx (Tlb.fill_slot t.dcache ~page:line ~payload:0));
    Array.unsafe_set t.lc_tag idx line
  end

let check_access t ~addr ~len ~write =
  try
    check_tlb_generation t;
    let first = addr lsr 12 and last = (addr + len - 1) lsr 12 in
    let idx = first land pc_mask in
    (if Array.unsafe_get t.pc_tag idx = first
        && Tlb.holds t.tlb ~slot:(Array.unsafe_get t.pc_slot idx) ~page:first
     then begin
       (* Repeat access to a cached page: model the TLB hit without the
          set scan, then apply the pre-baked verdict. *)
       Tlb.touch t.tlb ~slot:(Array.unsafe_get t.pc_slot idx);
       if
         not
           (if write then Array.unsafe_get t.pc_write_ok idx
            else Array.unsafe_get t.pc_read_ok idx)
       then raise (Trap_exn Trap_out_of_bounds)
     end
     else begin
       let slot, read_ok, write_ok = check_page_slow t ~page:first ~write in
       Array.unsafe_set t.pc_tag idx first;
       Array.unsafe_set t.pc_slot idx slot;
       Array.unsafe_set t.pc_read_ok idx read_ok;
       Array.unsafe_set t.pc_write_ok idx write_ok;
       Array.unsafe_set t.pc_bepoch idx (-1)
     end);
    if last <> first then ignore (check_page_slow t ~page:last ~write);
    touch_dcache t addr;
    if (addr + len - 1) lsr 6 <> addr lsr 6 then touch_dcache t (addr + len - 1);
    (* Every architectural check passed: give the sanitizer (if armed) a
       chance to flag an access that is legal for the hardware but illegal
       for the owning sandbox. An access that trapped above never reaches
       this point — it is already contained and attributed precisely. *)
    match t.sanitizer with
    | None -> ()
    | Some f -> f t ~kind:(if write then San_write else San_read) ~addr ~len
  with Trap_exn _ as e ->
    t.last_fault <- Some { fault_addr = addr; fault_write = write };
    raise e

(* Backing bytes of a cached page for reading/writing. Only call when
   [check_access] just succeeded for an access contained in [page] — that
   guarantees the entry's tag is [page], so a live byte epoch always
   describes this page's backing store. The data epoch guards against the
   store changing identity underneath us (fresh page materialization,
   madvise, unmap). *)
let ro_bytes t page =
  let idx = page land pc_mask in
  let epoch = Space.data_epoch t.space in
  if Array.unsafe_get t.pc_bepoch idx = epoch then Array.unsafe_get t.pc_bytes idx
  else begin
    let b = Space.page_for_read t.space ~page in
    Array.unsafe_set t.pc_bytes idx b;
    Array.unsafe_set t.pc_bwritable idx false;
    Array.unsafe_set t.pc_bepoch idx epoch;
    b
  end

let rw_bytes t page =
  let idx = page land pc_mask in
  let epoch = Space.data_epoch t.space in
  if Array.unsafe_get t.pc_bepoch idx = epoch && Array.unsafe_get t.pc_bwritable idx then
    Array.unsafe_get t.pc_bytes idx
  else begin
    let b = Space.page_for_write t.space ~page in
    Array.unsafe_set t.pc_bytes idx b;
    Array.unsafe_set t.pc_bwritable idx true;
    (* Read the epoch after materializing: allocation bumps it. *)
    Array.unsafe_set t.pc_bepoch idx (Space.data_epoch t.space);
    b
  end

let page_mask = Space.page_size - 1

let load_mem t w addr =
  let len = width_bytes w in
  check_access t ~addr ~len ~write:false;
  t.counters.loads <- t.counters.loads + 1;
  t.counters.cycles <- t.counters.cycles + t.cost.Cost.load_cycles;
  let off = addr land page_mask in
  if off + len <= Space.page_size then
    let b = ro_bytes t (addr lsr 12) in
    match w with
    | W8 -> Int64.of_int (Char.code (Bytes.get b off))
    | W16 -> Int64.of_int (Bytes.get_uint16_le b off)
    | W32 -> Int64.logand (Int64.of_int32 (Bytes.get_int32_le b off)) 0xFFFFFFFFL
    | W64 -> Bytes.get_int64_le b off
  else
    match w with
    | W8 -> Int64.of_int (Space.read8 t.space addr)
    | W16 -> Int64.of_int (Space.read16 t.space addr)
    | W32 -> Int64.logand (Int64.of_int32 (Space.read32 t.space addr)) 0xFFFFFFFFL
    | W64 -> Space.read64 t.space addr

let store_mem t w addr v =
  let len = width_bytes w in
  check_access t ~addr ~len ~write:true;
  t.counters.stores <- t.counters.stores + 1;
  t.counters.cycles <- t.counters.cycles + t.cost.Cost.store_cycles;
  let off = addr land page_mask in
  if off + len <= Space.page_size then begin
    let b = rw_bytes t (addr lsr 12) in
    match w with
    | W8 -> Bytes.set b off (Char.chr (Int64.to_int (Int64.logand v 0xFFL)))
    | W16 -> Bytes.set_uint16_le b off (Int64.to_int (Int64.logand v 0xFFFFL))
    | W32 -> Bytes.set_int32_le b off (Int64.to_int32 v)
    | W64 -> Bytes.set_int64_le b off v
  end
  else
    match w with
    | W8 -> Space.write8 t.space addr (Int64.to_int (Int64.logand v 0xFFL))
    | W16 -> Space.write16 t.space addr (Int64.to_int (Int64.logand v 0xFFFFL))
    | W32 -> Space.write32 t.space addr (Int64.to_int32 v)
    | W64 -> Space.write64 t.space addr v

(* --- Operand evaluation --- *)

let read_operand t w = function
  | Reg r -> read_reg_w t w r
  | Imm i -> (
      match w with
      | W64 -> i
      | W32 -> Int64.logand i 0xFFFFFFFFL
      | W16 -> Int64.logand i 0xFFFFL
      | W8 -> Int64.logand i 0xFFL)
  | Mem m -> load_mem t w (effective_address t m)

let write_operand t w op v =
  match op with
  | Reg r -> write_reg_w t w r v
  | Mem m -> store_mem t w (effective_address t m) v
  | Imm _ -> invalid_arg "Machine: immediate as destination"

(* --- Flags --- *)

let width_bits = function W8 -> 8 | W16 -> 16 | W32 -> 32 | W64 -> 64

let mask_of_width = function
  | W8 -> 0xFFL
  | W16 -> 0xFFFFL
  | W32 -> 0xFFFFFFFFL
  | W64 -> -1L

let sign_bit w v = Int64.logand v (Int64.shift_left 1L (width_bits w - 1)) <> 0L

let set_logic_flags t w r =
  t.zf <- Int64.logand r (mask_of_width w) = 0L;
  t.sf <- sign_bit w r;
  t.cf <- false;
  t.of_ <- false

let set_add_flags t w a b r =
  t.zf <- Int64.logand r (mask_of_width w) = 0L;
  t.sf <- sign_bit w r;
  (if w = W64 then t.cf <- Int64.unsigned_compare r a < 0
   else
     let ua = Int64.logand a (mask_of_width w) and ub = Int64.logand b (mask_of_width w) in
     t.cf <- Int64.unsigned_compare (Int64.add ua ub) (mask_of_width w) > 0);
  t.of_ <- sign_bit w a = sign_bit w b && sign_bit w r <> sign_bit w a

let set_sub_flags t w a b r =
  t.zf <- Int64.logand r (mask_of_width w) = 0L;
  t.sf <- sign_bit w r;
  (let ua = Int64.logand a (mask_of_width w) and ub = Int64.logand b (mask_of_width w) in
   t.cf <- Int64.unsigned_compare ua ub < 0);
  t.of_ <- sign_bit w a <> sign_bit w b && sign_bit w r <> sign_bit w a

let eval_cond t = function
  | E -> t.zf
  | NE -> not t.zf
  | L -> t.sf <> t.of_
  | GE -> t.sf = t.of_
  | LE -> t.zf || t.sf <> t.of_
  | G -> (not t.zf) && t.sf = t.of_
  | B -> t.cf
  | AE -> not t.cf
  | BE -> t.cf || t.zf
  | A -> (not t.cf) && not t.zf
  | S -> t.sf
  | NS -> not t.sf

(* --- Sign extension helper for Movsx / division --- *)

let sext w v =
  match w with
  | W64 -> v
  | _ ->
      let bits = 64 - width_bits w in
      Int64.shift_right (Int64.shift_left v bits) bits

(* --- Execution --- *)

let charge t cycles = t.counters.cycles <- t.counters.cycles + cycles

let charge_frontend t len =
  t.counters.code_bytes <- t.counters.code_bytes + len;
  let bpc = t.cost.Cost.frontend_bytes_per_cycle in
  if bpc > 0 then begin
    let total = t.fetch_accum + len in
    (* [fetch_accum < bpc] always, and instructions are at most 15 bytes,
       so [total / bpc] is almost always 0 or 1: avoid the hardware divide
       on this per-instruction path. *)
    if total < bpc then t.fetch_accum <- total
    else if total - bpc < bpc then begin
      charge t 1;
      t.fetch_accum <- total - bpc
    end
    else begin
      charge t (total / bpc);
      t.fetch_accum <- total mod bpc
    end
  end

let push64 t v =
  let rsp = Int64.to_int (get_reg t RSP) - 8 in
  set_reg t RSP (Int64.of_int rsp);
  check_access t ~addr:rsp ~len:8 ~write:true;
  t.counters.stores <- t.counters.stores + 1;
  if rsp land page_mask <= Space.page_size - 8 then
    Bytes.set_int64_le (rw_bytes t (rsp lsr 12)) (rsp land page_mask) v
  else Space.write64 t.space rsp v

let pop64 t =
  let rsp = Int64.to_int (get_reg t RSP) in
  check_access t ~addr:rsp ~len:8 ~write:false;
  t.counters.loads <- t.counters.loads + 1;
  let v =
    if rsp land page_mask <= Space.page_size - 8 then
      Bytes.get_int64_le (ro_bytes t (rsp lsr 12)) (rsp land page_mask)
    else Space.read64 t.space rsp
  in
  set_reg t RSP (Int64.of_int (rsp + 8));
  v

let halt_sentinel = 0L

(* Resolve an absolute code byte address to an instruction index through the
   flat offset table (first instruction at a given address wins, as labels
   share the address of the instruction that follows them). *)
let jump_via index_of_off code_base t addr =
  (match t.sanitizer with
  | None -> ()
  | Some f -> f t ~kind:San_branch ~addr ~len:0);
  let off = addr - code_base in
  if off >= 0 && off < Array.length index_of_off && index_of_off.(off) >= 0 then
    t.pc <- index_of_off.(off)
  else raise (Trap_exn Trap_out_of_bounds)

let jump_to_address t addr =
  let l = get_loaded t in
  jump_via l.index_of_off t.code_base t addr

let return_address t =
  (* Byte address of the instruction after the current one. *)
  let l = get_loaded t in
  l.ret_addrs.(t.pc)

(* Pure value computations shared by the reference interpreter and the
   compiled closures, so the executors cannot drift. *)

let shift_value w op a n =
  let bits = width_bits w in
  let masked = Int64.logand a (mask_of_width w) in
  match op with
  | Shl -> Int64.shift_left a n
  | Shr -> Int64.shift_right_logical masked n
  | Sar -> Int64.shift_right (sext w a) n
  | Rol ->
      if n = 0 then a
      else Int64.logor (Int64.shift_left masked n) (Int64.shift_right_logical masked (bits - n))
  | Ror ->
      if n = 0 then a
      else Int64.logor (Int64.shift_right_logical masked n) (Int64.shift_left masked (bits - n))

let bitcnt_value k w v =
  let bits = width_bits w in
  match k with
  | Popcnt ->
      let n = ref 0 and x = ref v in
      for _ = 1 to 64 do
        if Int64.logand !x 1L = 1L then incr n;
        x := Int64.shift_right_logical !x 1
      done;
      !n
  | Tzcnt ->
      if v = 0L then bits
      else begin
        let n = ref 0 and x = ref v in
        while Int64.logand !x 1L = 0L do
          incr n;
          x := Int64.shift_right_logical !x 1
        done;
        !n
      end
  | Lzcnt ->
      if v = 0L then bits
      else begin
        let n = ref 0 in
        let top = Int64.shift_left 1L (bits - 1) in
        let x = ref v in
        while Int64.logand !x top = 0L do
          incr n;
          x := Int64.shift_left !x 1
        done;
        !n
      end

let div_by_zero = Trap_exn Trap_integer_divide_by_zero
let div_overflow = Trap_exn Trap_integer_overflow

(* Division semantics without the cycle charge — the translated tiers
   charge it as a fixed cost (per slot or batched) and run only this
   core. *)
let exec_div_core t w signed ~read =
  let divisor = read t in
  if signed then begin
    let a = sext w (read_reg_w t w RAX) in
    let b = sext w divisor in
    if b = 0L then raise div_by_zero;
    let min_w = Int64.shift_left 1L (width_bits w - 1) |> sext w in
    if a = min_w && b = -1L then raise div_overflow;
    write_reg_w t w RAX (Int64.div a b);
    write_reg_w t w RDX (Int64.rem a b)
  end
  else begin
    let a = read_reg_w t w RAX in
    let b = divisor in
    if b = 0L then raise div_by_zero;
    write_reg_w t w RAX (Int64.unsigned_div a b);
    write_reg_w t w RDX (Int64.unsigned_rem a b)
  end

let exec_div t w signed ~read =
  charge t t.cost.Cost.div_cycles;
  exec_div_core t w signed ~read

let vreg_index (XMM n) =
  if n < 0 || n > 15 then invalid_arg "Machine: bad xmm register";
  n

let vload_data t vi addr =
  check_access t ~addr ~len:16 ~write:false;
  t.counters.loads <- t.counters.loads + 1;
  let off = addr land page_mask in
  if off <= Space.page_size - 16 then Bytes.blit (ro_bytes t (addr lsr 12)) off t.vregs.(vi) 0 16
  else begin
    let data = Space.read_bytes t.space ~addr ~len:16 in
    Bytes.blit data 0 t.vregs.(vi) 0 16
  end

let vstore_data t addr vi =
  check_access t ~addr ~len:16 ~write:true;
  t.counters.stores <- t.counters.stores + 1;
  let off = addr land page_mask in
  if off <= Space.page_size - 16 then Bytes.blit t.vregs.(vi) 0 (rw_bytes t (addr lsr 12)) off 16
  else Space.write_bytes t.space ~addr (Bytes.copy t.vregs.(vi))

(* --- The reference interpreter --- *)

let step t =
  let l = get_loaded t in
  if t.pc < 0 || t.pc >= Array.length l.program then raise (Trap_exn Trap_out_of_bounds);
  let instr = l.program.(t.pc) in
  t.counters.instructions <- t.counters.instructions + 1;
  charge_frontend t l.lengths.(t.pc);
  let cost = t.cost in
  let next_pc = ref (t.pc + 1) in
  (match instr with
  | Label _ -> t.counters.instructions <- t.counters.instructions - 1
  | Nop -> charge t cost.Cost.alu_cycles
  | Mov (w, dst, src) ->
      charge t cost.Cost.alu_cycles;
      write_operand t w dst (read_operand t w src)
  | Movzx (dw, sw, dst, src) ->
      charge t cost.Cost.alu_cycles;
      write_reg_w t dw dst (read_operand t sw src)
  | Movsx (dw, sw, dst, src) ->
      charge t cost.Cost.alu_cycles;
      write_reg_w t dw dst (sext sw (read_operand t sw src))
  | Lea (w, dst, m) ->
      charge t cost.Cost.lea_cycles;
      write_reg_w t w dst (lea_value t m)
  | Alu (op, w, dst, src) ->
      charge t cost.Cost.alu_cycles;
      let a = read_operand t w dst and b = read_operand t w src in
      let r =
        match op with
        | Add -> Int64.add a b
        | Sub -> Int64.sub a b
        | And -> Int64.logand a b
        | Or -> Int64.logor a b
        | Xor -> Int64.logxor a b
      in
      (match op with
      | Add -> set_add_flags t w a b r
      | Sub -> set_sub_flags t w a b r
      | And | Or | Xor -> set_logic_flags t w r);
      write_operand t w dst r
  | Shift (op, w, dst, count) ->
      charge t cost.Cost.alu_cycles;
      let n =
        match count with
        | Count_imm n -> n
        | Count_cl -> Int64.to_int (Int64.logand (get_reg t RCX) 0x3FL)
      in
      let n = n land (width_bits w - 1) in
      let a = read_operand t w dst in
      let r = shift_value w op a n in
      set_logic_flags t w r;
      write_operand t w dst r
  | Imul (w, dst, src) ->
      charge t cost.Cost.mul_cycles;
      let r = Int64.mul (read_reg_w t w dst) (read_operand t w src) in
      write_reg_w t w dst r
  | Bitcnt (k, w, dst, src) ->
      charge t cost.Cost.alu_cycles;
      let v = Int64.logand (read_operand t w src) (mask_of_width w) in
      write_reg_w t w dst (Int64.of_int (bitcnt_value k w v))
  | Div (w, signed, src) -> exec_div t w signed ~read:(fun t -> read_operand t w src)
  | Cqo w ->
      charge t cost.Cost.alu_cycles;
      let a = sext w (read_reg_w t w RAX) in
      write_reg_w t w RDX (if Int64.compare a 0L < 0 then -1L else 0L)
  | Neg (w, op) ->
      charge t cost.Cost.alu_cycles;
      let a = read_operand t w op in
      let r = Int64.neg a in
      set_sub_flags t w 0L a r;
      write_operand t w op r
  | Not (w, op) ->
      charge t cost.Cost.alu_cycles;
      write_operand t w op (Int64.lognot (read_operand t w op))
  | Cmp (w, a, b) ->
      charge t cost.Cost.alu_cycles;
      let va = read_operand t w a and vb = read_operand t w b in
      set_sub_flags t w va vb (Int64.sub va vb)
  | Test (w, a, b) ->
      charge t cost.Cost.alu_cycles;
      let va = read_operand t w a and vb = read_operand t w b in
      set_logic_flags t w (Int64.logand va vb)
  | Setcc (c, r) ->
      charge t cost.Cost.alu_cycles;
      set_reg t r (if eval_cond t c then 1L else 0L)
  | Cmovcc (c, w, dst, src) ->
      charge t cost.Cost.alu_cycles;
      if eval_cond t c then write_reg_w t w dst (read_operand t w src)
      else if w = W32 then
        (* Hardware quirk: cmov with a 32-bit destination zero-extends even
           when the move does not happen. *)
        write_reg_w t w dst (read_reg_w t w dst)
  | Jmp _ ->
      charge t (cost.Cost.branch_cycles + cost.Cost.taken_branch_cycles);
      next_pc := l.targets.(t.pc)
  | Jcc (c, _) ->
      charge t cost.Cost.branch_cycles;
      if eval_cond t c then begin
        charge t cost.Cost.taken_branch_cycles;
        next_pc := l.targets.(t.pc)
      end
  | Jmp_reg r ->
      charge t cost.Cost.indirect_branch_cycles;
      jump_to_address t (Int64.to_int (get_reg t r) land addr_mask_47);
      next_pc := t.pc
  | Call _ ->
      charge t cost.Cost.call_ret_cycles;
      push64 t (return_address t);
      next_pc := l.targets.(t.pc)
  | Call_reg r ->
      charge t (cost.Cost.call_ret_cycles + cost.Cost.indirect_branch_cycles);
      push64 t (return_address t);
      jump_to_address t (Int64.to_int (get_reg t r) land addr_mask_47);
      next_pc := t.pc
  | Ret ->
      charge t cost.Cost.call_ret_cycles;
      let addr = pop64 t in
      if addr = halt_sentinel then raise Halt_exn;
      jump_to_address t (Int64.to_int addr land addr_mask_47);
      next_pc := t.pc
  | Push op ->
      charge t cost.Cost.store_cycles;
      push64 t (read_operand t W64 op)
  | Pop r ->
      charge t cost.Cost.load_cycles;
      set_reg t r (pop64 t)
  | Wrfsbase r | Wrgsbase r ->
      charge t
        (if t.fsgsbase_available then cost.Cost.wrsegbase_cycles
         else cost.Cost.wrsegbase_syscall_cycles);
      t.counters.seg_base_writes <- t.counters.seg_base_writes + 1;
      let v = Int64.to_int (get_reg t r) land addr_mask_47 in
      (match instr with Wrfsbase _ -> t.fs_base <- v | _ -> t.gs_base <- v)
  | Rdfsbase r ->
      charge t cost.Cost.alu_cycles;
      set_reg t r (Int64.of_int t.fs_base)
  | Rdgsbase r ->
      charge t cost.Cost.alu_cycles;
      set_reg t r (Int64.of_int t.gs_base)
  | Wrpkru ->
      charge t cost.Cost.wrpkru_cycles;
      t.counters.pkru_writes <- t.counters.pkru_writes + 1;
      t.pkru <- Int64.to_int (Int64.logand (get_reg t RAX) 0xFFFFFFFFL);
      invalidate_pcache t;
      if Sfi_trace.Trace.enabled t.trace then
        Sfi_trace.Trace.pkru_write t.trace ~value:t.pkru
  | Rdpkru ->
      charge t cost.Cost.alu_cycles;
      set_reg t RAX (Int64.of_int t.pkru);
      set_reg t RDX 0L
  | Vload (v, m) ->
      charge t cost.Cost.vector_cycles;
      vload_data t (vreg_index v) (effective_address t m)
  | Vstore (m, v) ->
      charge t cost.Cost.vector_cycles;
      vstore_data t (effective_address t m) (vreg_index v)
  | Vzero v ->
      charge t cost.Cost.vector_cycles;
      Bytes.fill t.vregs.(vreg_index v) 0 16 '\000'
  | Vdup8 (v, b) ->
      charge t cost.Cost.vector_cycles;
      Bytes.fill t.vregs.(vreg_index v) 0 16 (Char.chr (b land 0xFF))
  | Hostcall n ->
      charge t cost.Cost.hostcall_cycles;
      t.hostcall t n
  | Trap k -> raise (Trap_exn k));
  t.pc <- !next_pc

let start t ~entry =
  t.last_fault <- None;
  t.pc <- label_index t entry;
  push64 t halt_sentinel

let run_reference t ~fuel =
  let budget = ref fuel in
  let result = ref None in
  let sampling = t.prof_interval > 0 in
  (try
     while !result = None do
       if !budget <= 0 then result := Some Yielded
       else begin
         decr budget;
         step t;
         if sampling then prof_sample t 1
       end
     done
   with
  | Halt_exn -> result := Some Halted
  | Hostcall_exit _ -> result := Some Halted
  | Trap_exn k -> result := Some (Trapped k));
  match !result with Some s -> s | None -> assert false
