(* Tier 2: superblock promotion, and the one dispatch loop of the
   translated engines. A promoted basic block executes as one closure that
   charges instruction/code-byte/fixed-cycle counters once at block entry
   (constant-folded at promotion time) and then runs the same per-op
   bodies tier 1 wraps ([Translate.compile_body]), without their
   per-instruction prologues. Dynamic costs — dTLB walks, dcache misses,
   load/store counters, taken-branch cycles, segment/PKRU side effects —
   stay live inside the bodies, so at every dispatch boundary the counters
   are bit-identical to what [Decode.step] would have produced. Blocks
   that can fault mid-way run guarded: each body publishes its
   instruction index in [t.pc] before executing, and a prefix-sum side
   table rolls the batched charges back to exactly the faulting
   instruction before the trap is re-raised. *)

open Sfi_x86.Ast
open Mstate
open Translate

(* Build and install the superblock closure for [b]. The caller has
   already checked eligibility. *)
let promote_block t (l : loaded) (b : block) =
  let s = b.b_start and k = b.b_len in
  let prog = l.program in
  (* Prefix sums over the block's first [j] dispatch slots: bytes fetched,
     fixed cycles, retired instructions. Labels contribute nothing —
     [step] never runs their prologue. Index [done_] = slots whose
     prologue+fixed [step] would have charged before a fault at slot
     [done_ - 1]. *)
  let pre_bytes = Array.make (k + 1) 0 in
  let pre_fixed = Array.make (k + 1) 0 in
  let pre_instrs = Array.make (k + 1) 0 in
  for j = 0 to k - 1 do
    let i = prog.(s + j) in
    let is_label = match i with Label _ -> true | _ -> false in
    pre_bytes.(j + 1) <- (pre_bytes.(j) + if is_label then 0 else l.lengths.(s + j));
    pre_fixed.(j + 1) <- (pre_fixed.(j) + if is_label then 0 else fixed_cycles t i);
    pre_instrs.(j + 1) <- (pre_instrs.(j) + if is_label then 0 else 1)
  done;
  let total_bytes = pre_bytes.(k) in
  let fixed = pre_fixed.(k) in
  let n_instrs = pre_instrs.(k) in
  let guarded = b.b_class <> Bpure in
  let body_at j =
    let idx = s + j in
    let core = l.bodies.(idx) in
    let core =
      if j = k - 1 && not (is_control prog.(idx)) then fun t ->
        core t;
        t.pc <- idx + 1
      else core
    in
    if guarded then fun t ->
      (* Publish the slot index before executing so a trap (and the
         sanitizer's fault attribution) lands on the right instruction,
         and so the rollback below knows how far the block got. *)
      t.pc <- idx;
      core t
    else core
  in
  (* Fuse the bodies into one chained closure — no per-op dispatch table
     lookup left. *)
  let chain = ref (body_at 0) in
  for j = 1 to k - 1 do
    let prev = !chain and next = body_at j in
    chain :=
      fun t ->
        prev t;
        next t
  done;
  let bodies = !chain in
  let bpc = t.cost.Cost.frontend_bytes_per_cycle in
  let sb =
    if not guarded then fun t ->
      let c = t.counters in
      c.instructions <- c.instructions + n_instrs;
      c.code_bytes <- c.code_bytes + total_bytes;
      c.cycles <- c.cycles + fixed;
      t.sb_retired <- t.sb_retired + n_instrs;
      if bpc > 0 then begin
        let total = t.fetch_accum + total_bytes in
        c.cycles <- (c.cycles + (total / bpc));
        t.fetch_accum <- total mod bpc
      end;
      bodies t
    else fun t ->
      let c = t.counters in
      let accum_in = t.fetch_accum in
      c.instructions <- c.instructions + n_instrs;
      c.code_bytes <- c.code_bytes + total_bytes;
      c.cycles <- c.cycles + fixed;
      t.sb_retired <- t.sb_retired + n_instrs;
      if bpc > 0 then begin
        let total = accum_in + total_bytes in
        c.cycles <- (c.cycles + (total / bpc));
        t.fetch_accum <- total mod bpc
      end;
      try bodies t
      with e ->
        (* Roll the batch back to the faulting slot: [step] charges an
           instruction's prologue and fixed cycles before any of its trap
           points, so the faulting slot itself stays charged. Dynamic
           charges issued by completed bodies are already exact. *)
        let done_ = t.pc - s + 1 in
        c.instructions <- c.instructions - (n_instrs - pre_instrs.(done_));
        c.code_bytes <- c.code_bytes - (total_bytes - pre_bytes.(done_));
        c.cycles <- c.cycles - (fixed - pre_fixed.(done_));
        if bpc > 0 then begin
          let front_all = (accum_in + total_bytes) / bpc in
          let front_done = (accum_in + pre_bytes.(done_)) / bpc in
          c.cycles <- c.cycles - (front_all - front_done);
          t.fetch_accum <- (accum_in + pre_bytes.(done_)) mod bpc
        end;
        t.sb_retired <- t.sb_retired - (n_instrs - pre_instrs.(done_));
        raise e
  in
  l.sb_exec.(s) <- sb;
  l.sb_len.(s) <- k;
  l.promoted <- l.promoted + 1;
  t.tier_promotions <- t.tier_promotions + 1;
  if Sfi_trace.Trace.enabled t.trace then
    Sfi_trace.Trace.tier_promote t.trace ~cls:(class_rank b.b_class) ~block:s ~len:k

(* Promotion policy. [Bbypass] never promotes; trappable classes promote
   only while tracing is off, because their dynamic TLB/dcache/PKRU events
   carry cycle timestamps that batching would shift. [Bpure] blocks emit
   nothing and promote unconditionally. *)
let eligible t (b : block) =
  b.b_len >= t.tier_min_len
  &&
  match b.b_class with
  | Bpure -> true
  | Bload | Bhazard -> not (Sfi_trace.Trace.enabled t.trace)
  | Bbypass -> false

let promote_all t =
  match t.loaded with
  | None -> ()
  | Some l ->
      Array.iter (fun b -> if l.sb_len.(b.b_start) = 0 && eligible t b then promote_block t l b) l.blocks

(* Demote the promoted blocks that satisfy [p]: all of them when the
   engine drops back to an untiered setting, the trappable ones when
   [set_trace] installs an enabled sink. Stale [sb_exec] entries are
   unreachable once [sb_len] is zeroed. *)
let demote t p =
  match t.loaded with
  | None -> ()
  | Some l ->
      Array.iter
        (fun b ->
          if l.sb_len.(b.b_start) > 0 && p b then begin
            l.sb_len.(b.b_start) <- 0;
            l.promoted <- l.promoted - 1
          end)
        l.blocks

(* Profiler-driven promotion sweep, throttled to one O(program) pass per
   [tier_stride] fresh samples. A block is hot once the histogram holds
   [tier_threshold] samples across its slots. *)
let adaptive_scan t =
  match t.loaded with
  | None -> ()
  | Some l ->
      if t.prof_total - t.prof_last_scan >= t.tier_stride then begin
        t.prof_last_scan <- t.prof_total;
        let counts = t.prof_counts in
        let ncounts = Array.length counts in
        Array.iter
          (fun b ->
            if l.sb_len.(b.b_start) = 0 && eligible t b then begin
              let sum = ref 0 in
              let hi = min (b.b_start + b.b_len) ncounts in
              for i = b.b_start to hi - 1 do
                sum := !sum + counts.(i)
              done;
              if !sum >= t.tier_threshold then promote_block t l b
            end)
          l.blocks
      end

(* The dispatch loop of every translated engine: superblock when the
   current pc heads one and the remaining budget covers all of its slots
   (so fuel boundaries stay aligned with tier-1 dispatch slots), single
   tier-1 dispatch otherwise. A superblock retires [k] dispatch slots of
   fuel — exactly what tier 1 would have spent on the same instructions.
   Under [Threaded] nothing is promoted and every dispatch is tier 1.
   [step] would trap on an out-of-range pc; once inside the loop the
   slots keep pc within [0, n] (index n being the off-end sentinel). *)
let run_tiered t ~fuel =
  let l = get_loaded t in
  let code = l.exec in
  let sb_len = l.sb_len in
  let sb_exec = l.sb_exec in
  if fuel <= 0 then Yielded
  else if t.pc < 0 || t.pc > Array.length l.program then Trapped Trap_out_of_bounds
  else begin
    let budget = ref fuel in
    try
      if t.prof_interval > 0 then begin
        while !budget > 0 do
          let pc = t.pc in
          let k = sb_len.(pc) in
          if k > 0 && k <= !budget then begin
            budget := !budget - k;
            sb_exec.(pc) t;
            prof_sample_block t k
          end
          else begin
            decr budget;
            code.(pc) t;
            prof_sample t
          end
        done;
        Yielded
      end
      else begin
        while !budget > 0 do
          let pc = t.pc in
          let k = sb_len.(pc) in
          if k > 0 && k <= !budget then begin
            budget := !budget - k;
            sb_exec.(pc) t
          end
          else begin
            decr budget;
            code.(pc) t
          end
        done;
        Yielded
      end
    with
    | Halt_exn | Hostcall_exit _ -> Halted
    | Trap_exn k -> Trapped k
  end
