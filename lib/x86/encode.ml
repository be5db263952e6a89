open Ast

let fits_int8 n = n >= -128 && n <= 127
let fits_int8_64 n = Int64.compare n (-128L) >= 0 && Int64.compare n 127L <= 0

let fits_int32_64 n =
  Int64.compare n (-2147483648L) >= 0 && Int64.compare n 2147483647L <= 0

let is_extended r = gpr_index r >= 8

(* Legacy prefixes contributed by a memory operand: segment override and
   address-size override. *)
let mem_prefixes (m : mem) =
  (* native_base models absolute-pointer addressing: no prefixes. *)
  if m.native_base then 0
  else (if m.seg <> None then 1 else 0) + if m.addr32 then 1 else 0

(* ModRM + SIB + displacement bytes for a memory operand. *)
let modrm_sib_disp (m : mem) =
  let needs_sib =
    m.index <> None
    || (match m.base with Some (RSP | R12) -> true | _ -> false)
    || m.base = None
  in
  let disp_bytes =
    match m.base with
    | None -> 4 (* absolute/rip-style always carries disp32 *)
    | Some (RBP | R13) -> if fits_int8 m.disp then 1 else 4
    | Some _ -> if m.disp = 0 then 0 else if fits_int8 m.disp then 1 else 4
  in
  1 + (if needs_sib then 1 else 0) + disp_bytes

(* Does a memory operand reference extended registers (forcing REX)? *)
let mem_uses_extended (m : mem) =
  (match m.base with Some r -> is_extended r | None -> false)
  || match m.index with Some (r, _) -> is_extended r | None -> false

let rex_needed w regs mems =
  w = W64 || List.exists is_extended regs || List.exists mem_uses_extended mems

let operand_size_prefix w = if w = W16 then 1 else 0

(* Generic "op reg/mem, reg/mem-or-imm" shape shared by mov/alu/cmp/test. *)
let rm_form w dst src ~imm_is_8_ok =
  let regs = List.filter_map (function Reg r -> Some r | _ -> None) [ dst; src ] in
  let mems = List.filter_map (function Mem m -> Some m | _ -> None) [ dst; src ] in
  let prefix = List.fold_left (fun acc m -> acc + mem_prefixes m) 0 mems in
  let rex = if rex_needed w regs mems then 1 else 0 in
  let body =
    match mems with
    | m :: _ -> modrm_sib_disp m
    | [] -> 1 (* ModRM only, register-direct *)
  in
  let imm =
    match src with
    | Imm i ->
        if w = W8 then 1
        else if imm_is_8_ok && fits_int8_64 i then 1
        else if w = W64 && not (fits_int32_64 i) then 8
        else 4
    | Reg _ | Mem _ -> 0
  in
  operand_size_prefix w + prefix + rex + 1 + body + imm

let instr_length (i : instr) =
  match i with
  | Label _ -> 0
  | Mov (w, dst, src) -> rm_form w dst src ~imm_is_8_ok:false
  | Movzx (dw, _, dst, src) | Movsx (dw, _, dst, src) ->
      (* 0F B6/B7/BE/BF: two-byte opcode. *)
      1 + rm_form dw (Reg dst) src ~imm_is_8_ok:false
  | Lea (w, dst, m) ->
      let rex = if rex_needed w [ dst ] [ m ] then 1 else 0 in
      operand_size_prefix w + mem_prefixes m + rex + 1 + modrm_sib_disp m
  | Alu (_, w, dst, src) | Cmp (w, dst, src) -> rm_form w dst src ~imm_is_8_ok:true
  | Test (w, dst, src) -> rm_form w dst src ~imm_is_8_ok:false
  | Shift (_, w, dst, count) ->
      let base = rm_form w dst (Reg RCX) ~imm_is_8_ok:false in
      (match count with Count_imm 1 | Count_cl -> base | Count_imm _ -> base + 1)
  | Imul (w, dst, src) -> 1 + rm_form w (Reg dst) src ~imm_is_8_ok:false
  | Bitcnt (_, w, dst, src) ->
      (* F3 0F B8/BC/BD /r: mandatory prefix + two-byte opcode. *)
      2 + rm_form w (Reg dst) src ~imm_is_8_ok:false
  | Div (w, _, src) -> rm_form w src (Reg RAX) ~imm_is_8_ok:false
  | Cqo w -> if w = W64 then 2 else 1
  | Neg (w, op) | Not (w, op) -> rm_form w op (Reg RAX) ~imm_is_8_ok:false
  | Setcc (_, r) ->
      (* setcc r8 (3 + possible REX) followed by the folded movzx (3). *)
      (if is_extended r then 4 else 3) + 3
  | Cmovcc (_, w, dst, src) -> 1 + rm_form w (Reg dst) src ~imm_is_8_ok:false
  | Jmp _ -> 5 (* jmp rel32 *)
  | Jcc _ -> 6 (* 0F 8x rel32 *)
  | Jmp_reg r | Call_reg r -> if is_extended r then 3 else 2
  | Call _ -> 5
  | Ret -> 1
  | Push (Reg r) | Pop r -> if is_extended r then 2 else 1
  | Push (Imm i) -> if fits_int8_64 i then 2 else 5
  | Push (Mem m) -> mem_prefixes m + 1 + modrm_sib_disp m
  | Wrfsbase _ | Wrgsbase _ | Rdfsbase _ | Rdgsbase _ -> 5 (* F3 REX.W 0F AE /r *)
  | Wrpkru | Rdpkru -> 3 (* 0F 01 EF / 0F 01 EE *)
  | Vload (_, m) | Vstore (m, _) -> 3 + mem_prefixes m + 1 + modrm_sib_disp m
  | Vzero _ -> 4
  | Vdup8 (_, _) -> 6
  | Hostcall _ -> 7 (* mov eax, imm32 ; syscall *)
  | Trap _ -> 2 (* ud2 *)
  | Nop -> 1

let program_length (p : program) = Array.fold_left (fun acc i -> acc + instr_length i) 0 p

let layout (p : program) =
  let offsets = Array.make (Array.length p) 0 in
  let off = ref 0 in
  Array.iteri
    (fun idx i ->
      offsets.(idx) <- !off;
      off := !off + instr_length i)
    p;
  offsets
