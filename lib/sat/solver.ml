(* A CDCL SAT solver: two-watched-literal propagation over a flat clause
   arena, first-UIP conflict analysis with clause learning and
   learnt-clause minimization, VSIDS-style variable activities with a
   binary heap, clause activities with periodic learnt-database
   reduction, phase saving, and Luby-sequence restarts.  Incremental use
   is supported through solve-time assumptions; clauses may be added
   between calls.

   Representation: clause literals live in one packed int array
   ({!Arena}); a clause is an integer offset ("cref").  Watcher lists
   are flat int vectors packing [(cref lsl 31) lor blocker], where the
   blocker is some literal of the clause whose truth lets propagation
   skip the clause without touching the arena.  Binary clauses never
   enter the arena: each literal carries a dedicated list of
   [(other lsl 1) lor learnt] entries and is propagated inline.
   Learnt-clause deletion is lazy (a header mark, filtered out of watch
   lists on sight); the arena is compacted once a quarter of it is dead.

   The external interface uses DIMACS conventions: variables are positive
   integers obtained from [new_var], a literal is [+v] or [-v]. *)

type lbool = LTrue | LFalse | LUndef

(* Reason tags, per assigned variable: [-1] none (decision / assumption /
   level-0 fact), even [c lsl 1] a long-clause antecedent at cref [c],
   odd [(u lsl 1) lor 1] a binary antecedent whose other literal is [u]. *)
let no_reason = -1

let reason_of_cref c = c lsl 1
let reason_of_bin other = (other lsl 1) lor 1

(* Packed watcher for long clauses: [(cref lsl 31) lor blocker].
   Propagation unpacks inline with [lsr 31] / [land 0x7FFFFFFF]. *)
let watcher cref blocker = (cref lsl 31) lor blocker

type t = {
  mutable arena : Arena.t;                 (* all long-clause literals *)
  clauses : int Vec.t;                     (* problem clause crefs *)
  learnts : int Vec.t;                     (* learnt clause crefs (len >= 3) *)
  mutable watches : int Vec.t array;       (* long-clause watchers per literal *)
  mutable bin_watches : int Vec.t array;   (* binary-clause lists per literal *)
  mutable n_bin_problem : int;             (* binary problem clauses *)
  mutable n_bin_learnt : int;              (* binary learnt clauses *)
  mutable cla_act : float array;           (* learnt-clause activities, by slot *)
  mutable cla_act_n : int;                 (* live activity slots *)
  mutable assigns : lbool array;           (* per var *)
  mutable polarity : bool array;           (* saved phase per var *)
  mutable level : int array;               (* decision level per var *)
  mutable reason : int array;              (* antecedent tag per var *)
  mutable activity : float array;          (* VSIDS activity per var *)
  mutable seen : bool array;               (* scratch for analyze *)
  trail : int Vec.t;                       (* assigned literals, in order *)
  trail_lim : int Vec.t;                   (* decision-level boundaries *)
  mutable qhead : int;                     (* propagation queue head *)
  mutable nvars : int;
  heap : Heap.t;                           (* decision heap, max-activity *)
  mutable var_inc : float;                 (* variable activity increment *)
  mutable cla_inc : float;                 (* clause activity increment *)
  mutable learnt_limit : int;              (* learnt-db capacity; 0 = unset *)
  mutable ok : bool;                       (* false once trivially unsat *)
  mutable model_valid : bool;              (* last operation was a Sat solve *)
  mutable act_live : int;                  (* live activation var, 0 = none *)
  mutable n_act_retired : int;             (* retired activation vars *)
  mutable conflict_core : int array;       (* failed assumptions, internal lits *)
  mutable deadline : float;                (* absolute wall clock; infinity = none *)
  mutable n_conflicts : int;
  mutable n_decisions : int;
  mutable n_propagations : int;
  mutable n_restarts : int;
  mutable n_reduce_db : int;               (* learnt-db reductions performed *)
  mutable n_learnts_deleted : int;         (* clauses dropped by reduce_db *)
  mutable n_lits_minimized : int;          (* literals removed by ccmin *)
  mutable peak_learnts : int;              (* high-water mark of the db *)
}

let create () =
  {
    arena = Arena.create ();
    clauses = Vec.create 0;
    learnts = Vec.create 0;
    watches = [||];
    bin_watches = [||];
    n_bin_problem = 0;
    n_bin_learnt = 0;
    cla_act = [||];
    cla_act_n = 0;
    assigns = [||];
    polarity = [||];
    level = [||];
    reason = [||];
    activity = [||];
    seen = [||];
    trail = Vec.create 0;
    trail_lim = Vec.create 0;
    qhead = 0;
    nvars = 0;
    heap = Heap.create ();
    var_inc = 1.0;
    cla_inc = 1.0;
    learnt_limit = 0;
    ok = true;
    model_valid = false;
    act_live = 0;
    n_act_retired = 0;
    conflict_core = [||];
    deadline = infinity;
    n_conflicts = 0;
    n_decisions = 0;
    n_propagations = 0;
    n_restarts = 0;
    n_reduce_db = 0;
    n_learnts_deleted = 0;
    n_lits_minimized = 0;
    peak_learnts = 0;
  }

let n_vars t = t.nvars
let n_clauses t = Vec.size t.clauses + t.n_bin_problem
let n_learnt_clauses t = Vec.size t.learnts + t.n_bin_learnt
let n_conflicts t = t.n_conflicts

(* The shared, always-empty watch list of every literal nothing has been
   pushed onto yet, so growth allocates no per-literal list.  Only
   [push_watch] adds to a list; clearing or filtering leaves it empty. *)
let no_watches : int Vec.t = Vec.create ~capacity:1 0

let grow_arrays t n =
  let old = Array.length t.assigns in
  if n > old then begin
    let cap = max n (max 16 (2 * old)) in
    let extend a fill =
      let a' = Array.make cap fill in
      Array.blit a 0 a' 0 old;
      a'
    in
    t.assigns <- extend t.assigns LUndef;
    t.polarity <- extend t.polarity false;
    t.level <- extend t.level (-1);
    t.reason <- extend t.reason no_reason;
    t.activity <- extend t.activity 0.0;
    t.seen <- extend t.seen false;
    let extend_watch w =
      let w' = Array.make (2 * cap) no_watches in
      Array.blit w 0 w' 0 (Array.length w);
      w'
    in
    t.watches <- extend_watch t.watches;
    t.bin_watches <- extend_watch t.bin_watches
  end

(* Push onto the watch list of literal [l] in [ws], giving the literal
   its own list on its first push. *)
let push_watch ws l x =
  if ws.(l) == no_watches then ws.(l) <- Vec.create ~capacity:4 0;
  Vec.push ws.(l) x

(* Allocates a fresh variable and returns its external (1-based) index. *)
let new_var t =
  let v = t.nvars in
  t.nvars <- v + 1;
  grow_arrays t t.nvars;
  Heap.insert t.heap v t.activity.(v);
  v + 1

let value_lit t l =
  match t.assigns.(Lit.var l) with
  | LUndef -> LUndef
  | LTrue -> if Lit.sign l then LTrue else LFalse
  | LFalse -> if Lit.sign l then LFalse else LTrue

let decision_level t = Vec.size t.trail_lim

let var_bump t v =
  t.activity.(v) <- t.activity.(v) +. t.var_inc;
  if t.activity.(v) > 1e100 then begin
    for i = 0 to t.nvars - 1 do
      t.activity.(i) <- t.activity.(i) *. 1e-100
    done;
    t.var_inc <- t.var_inc *. 1e-100;
    Heap.rescale t.heap 1e-100
  end;
  if Heap.mem t.heap v then Heap.update t.heap v t.activity.(v)

let var_decay t = t.var_inc <- t.var_inc /. 0.95

let cla_bump t c =
  let s = Arena.act_slot t.arena c in
  t.cla_act.(s) <- t.cla_act.(s) +. t.cla_inc;
  if t.cla_act.(s) > 1e20 then begin
    for i = 0 to t.cla_act_n - 1 do
      t.cla_act.(i) <- t.cla_act.(i) *. 1e-20
    done;
    t.cla_inc <- t.cla_inc *. 1e-20
  end

let cla_decay t = t.cla_inc <- t.cla_inc /. 0.999

(* Enqueue literal [l] as true, with its antecedent tag. *)
let enqueue t l reason =
  let v = Lit.var l in
  assert (t.assigns.(v) = LUndef);
  t.assigns.(v) <- (if Lit.sign l then LTrue else LFalse);
  t.polarity.(v) <- Lit.sign l;
  t.level.(v) <- decision_level t;
  t.reason.(v) <- reason;
  Vec.push t.trail l

let cancel_until t lvl =
  if decision_level t > lvl then begin
    let bound = Vec.get t.trail_lim lvl in
    for i = Vec.size t.trail - 1 downto bound do
      let l = Vec.get t.trail i in
      let v = Lit.var l in
      t.assigns.(v) <- LUndef;
      t.reason.(v) <- no_reason;
      if not (Heap.mem t.heap v) then Heap.insert t.heap v t.activity.(v)
    done;
    Vec.shrink t.trail bound;
    Vec.shrink t.trail_lim lvl;
    t.qhead <- Vec.size t.trail
  end

(* Attach a long clause (>= 3 literals) to the watch lists of its first
   two literals; the initial blocker is the other watched literal. *)
let attach t c =
  let l0 = Arena.lit t.arena c 0 and l1 = Arena.lit t.arena c 1 in
  push_watch t.watches (Lit.negate l0) (watcher c l1);
  push_watch t.watches (Lit.negate l1) (watcher c l0)

(* Record a binary clause [(a, b)] inline in the binary watch lists: the
   entry under literal [l] describes the clause [(negate l, other)]. *)
let add_binary t ~learnt a b =
  let tag = if learnt then 1 else 0 in
  push_watch t.bin_watches (Lit.negate a) ((b lsl 1) lor tag);
  push_watch t.bin_watches (Lit.negate b) ((a lsl 1) lor tag);
  if learnt then t.n_bin_learnt <- t.n_bin_learnt + 1
  else t.n_bin_problem <- t.n_bin_problem + 1

(* A clause is locked while it is the antecedent of its asserting literal
   (position 0 holds the implied literal for as long as it is assigned:
   propagation only ever swaps the newly-false literal into position 1). *)
let locked t c = t.reason.(Lit.var (Arena.lit t.arena c 0)) = reason_of_cref c

let ensure_act_slot t =
  if t.cla_act_n >= Array.length t.cla_act then begin
    let cap = max 16 (2 * Array.length t.cla_act) in
    let a = Array.make cap 0.0 in
    Array.blit t.cla_act 0 a 0 t.cla_act_n;
    t.cla_act <- a
  end;
  let s = t.cla_act_n in
  t.cla_act_n <- s + 1;
  t.cla_act.(s) <- 0.0;
  s

(* Record a freshly learnt clause (>= 2 literals) in the database and
   return the reason tag for its asserting literal [lits.(0)]. *)
let new_learnt t lits =
  let r =
    if Array.length lits = 2 then begin
      add_binary t ~learnt:true lits.(0) lits.(1);
      reason_of_bin lits.(1)
    end
    else begin
      let c = Arena.alloc t.arena ~learnt:true ~act:(ensure_act_slot t) lits in
      Vec.push t.learnts c;
      attach t c;
      cla_bump t c;
      reason_of_cref c
    end
  in
  if n_learnt_clauses t > t.peak_learnts then
    t.peak_learnts <- n_learnt_clauses t;
  r

(* Rebuild the long-clause watch lists from scratch (after arena
   compaction; only sound while the propagation queue is empty, since
   watches reset to the first two literals of each clause). *)
let rebuild_watches t =
  for l = 0 to (2 * t.nvars) - 1 do
    Vec.clear t.watches.(l)
  done;
  Vec.iter (fun c -> attach t c) t.clauses;
  Vec.iter (fun c -> attach t c) t.learnts

(* Copy live clauses into a fresh arena and rewrite every cref: the
   clause vectors, and the long-clause reasons of trail literals (locked
   clauses are live by definition, so their forwarding address exists). *)
let compact_arena t =
  let src = t.arena in
  let dst =
    Arena.create ~capacity:(src.Arena.size - src.Arena.wasted + 16) ()
  in
  let remap vec =
    for i = 0 to Vec.size vec - 1 do
      Vec.set vec i (Arena.move ~src ~dst (Vec.get vec i))
    done
  in
  remap t.clauses;
  remap t.learnts;
  Vec.iter
    (fun l ->
      let v = Lit.var l in
      let r = t.reason.(v) in
      if r >= 0 && r land 1 = 0 then
        t.reason.(v) <- reason_of_cref (Arena.forward src (r asr 1)))
    t.trail;
  t.arena <- dst;
  rebuild_watches t

(* Delete the colder half of the learnt database, ordered by clause
   activity.  Locked clauses (current antecedents) are never deleted,
   and binary learnts live outside the database entirely (cheap to keep,
   expensive to re-learn).  Deletion is a header mark; watch lists are
   purged lazily by propagation, and the arena is compacted once a
   quarter of its words are dead. *)
let reduce_db t =
  t.n_reduce_db <- t.n_reduce_db + 1;
  let n = Vec.size t.learnts in
  let arr = Array.init n (Vec.get t.learnts) in
  Array.sort
    (fun a b ->
      compare
        t.cla_act.(Arena.act_slot t.arena a)
        t.cla_act.(Arena.act_slot t.arena b))
    arr;
  Vec.clear t.learnts;
  Array.iteri
    (fun i c ->
      if locked t c || i >= n / 2 then Vec.push t.learnts c
      else begin
        Arena.delete t.arena c;
        t.n_learnts_deleted <- t.n_learnts_deleted + 1
      end)
    arr;
  (* Re-pack activity slots so the slot array tracks the live set. *)
  let m = Vec.size t.learnts in
  let acts = Array.make (max 1 m) 0.0 in
  for i = 0 to m - 1 do
    let c = Vec.get t.learnts i in
    acts.(i) <- t.cla_act.(Arena.act_slot t.arena c);
    Arena.set_act_slot t.arena c i
  done;
  Array.blit acts 0 t.cla_act 0 m;
  t.cla_act_n <- m;
  if Arena.fragmentation t.arena > 0.25 then compact_arena t

(* The outcome of a propagation round. *)
type confl = CNone | CRef of int | CBin of int * int

exception Budget_exc

(* Unit propagation.  Long clauses behind their blocker literals first
   (matching the old kernel's attach-order scan, which the learnt-clause
   trajectory is tuned against), then binary clauses as a flat scan with
   no arena access.  The wall-clock deadline is polled every 256
   propagated literals (only when one is set) so heavy conflict-free
   propagation cannot overrun a time budget unobserved.

   This is the solver's hottest loop: it reads vectors through their
   fields directly (skipping the [Vec.get] bounds asserts) and values
   literals inline.  [lit_val] returns 1 true / -1 false / 0 undef. *)
let propagate t =
  let result = ref CNone in
  let assigns = t.assigns in
  let lit_val l =
    match Array.unsafe_get assigns (l lsr 1) with
    | LUndef -> 0
    | LTrue -> if l land 1 = 0 then 1 else -1
    | LFalse -> if l land 1 = 0 then -1 else 1
  in
  (try
     while t.qhead < t.trail.Vec.size do
       let l = Array.unsafe_get t.trail.Vec.data t.qhead in
       t.qhead <- t.qhead + 1;
       t.n_propagations <- t.n_propagations + 1;
       if
         t.deadline < infinity
         && t.n_propagations land 255 = 0
         && Unix.gettimeofday () > t.deadline
       then raise Budget_exc;
       let nl = Lit.negate l in
       (* Long clauses. *)
       let ws = Array.unsafe_get t.watches l in
       let data = t.arena.Arena.data in
       let i = ref 0 in
       while !i < ws.Vec.size do
         let w = Array.unsafe_get ws.Vec.data !i in
         if lit_val (w land 0x7FFFFFFF) = 1 then incr i
         else begin
           let c = w lsr 31 in
           let hd = Array.unsafe_get data c in
           if hd land 2 <> 0 then
             (* deleted by reduce_db: lazily drop the watcher *)
             Vec.swap_remove ws !i
           else begin
             let base = c + 2 in
             (* Ensure the false literal is at position 1. *)
             if Array.unsafe_get data base = nl then begin
               Array.unsafe_set data base (Array.unsafe_get data (base + 1));
               Array.unsafe_set data (base + 1) nl
             end;
             let first = Array.unsafe_get data base in
             if first <> w land 0x7FFFFFFF && lit_val first = 1 then begin
               (* satisfied: remember the satisfying literal as blocker *)
               Array.unsafe_set ws.Vec.data !i (watcher c first);
               incr i
             end
             else begin
               (* Look for a new literal to watch. *)
               let len = hd lsr 2 in
               let k = ref 2 in
               while
                 !k < len && lit_val (Array.unsafe_get data (base + !k)) = -1
               do
                 incr k
               done;
               if !k < len then begin
                 let nk = Array.unsafe_get data (base + !k) in
                 Array.unsafe_set data (base + 1) nk;
                 Array.unsafe_set data (base + !k) nl;
                 push_watch t.watches (Lit.negate nk) (watcher c first);
                 Vec.swap_remove ws !i
               end
               else if lit_val first = -1 then begin
                 t.qhead <- t.trail.Vec.size;
                 result := CRef c;
                 raise Exit
               end
               else begin
                 enqueue t first (reason_of_cref c);
                 incr i
               end
             end
           end
         end
       done;
       (* Binary clauses (negate l, other): inline propagation. *)
       let bw = Array.unsafe_get t.bin_watches l in
       let bd = bw.Vec.data in
       for bi = 0 to bw.Vec.size - 1 do
         let other = Array.unsafe_get bd bi lsr 1 in
         match lit_val other with
         | 1 -> ()
         | 0 -> enqueue t other (reason_of_bin nl)
         | _ ->
             t.qhead <- t.trail.Vec.size;
             result := CBin (other, nl);
             raise Exit
       done
     done
   with Exit -> ());
  !result

(* First-UIP conflict analysis.  Returns the learnt clause (with the
   asserting literal first) and the backtrack level.  Before the clause is
   returned it is shortened by self-subsumption (MiniSat's local "ccmin"):
   a literal whose antecedent is fully covered by the remaining clause and
   level-0 facts resolves away without weakening the clause. *)
let analyze t confl =
  let learnt = Vec.create 0 in
  Vec.push learnt 0 (* placeholder for asserting literal *);
  let path = ref 0 in
  let p = ref (-1) in
  let visit q =
    let v = Lit.var q in
    if (not t.seen.(v)) && t.level.(v) > 0 then begin
      t.seen.(v) <- true;
      var_bump t v;
      if t.level.(v) >= decision_level t then incr path
      else Vec.push learnt q
    end
  in
  (match confl with
  | CBin (l0, l1) ->
      visit l0;
      visit l1
  | CRef c ->
      if Arena.is_learnt t.arena c then cla_bump t c;
      Arena.iter_lits visit t.arena c
  | CNone -> assert false);
  let idx = ref (Vec.size t.trail - 1) in
  let continue_ = ref true in
  while !continue_ do
    (* Select next literal on the trail to expand. *)
    let rec next i =
      if t.seen.(Lit.var (Vec.get t.trail i)) then i else next (i - 1)
    in
    idx := next !idx;
    let lt = Vec.get t.trail !idx in
    decr idx;
    p := lt;
    t.seen.(Lit.var lt) <- false;
    decr path;
    if !path <= 0 then continue_ := false
    else begin
      let r = t.reason.(Lit.var lt) in
      assert (r >= 0);
      if r land 1 = 1 then visit (r asr 1)
      else begin
        let c = r asr 1 in
        if Arena.is_learnt t.arena c then cla_bump t c;
        let len = Arena.len t.arena c in
        for j = 1 to len - 1 do
          visit (Arena.lit t.arena c j)
        done
      end
    end
  done;
  Vec.set learnt 0 (Lit.negate !p);
  (* Self-subsumption pass: at this point [seen] holds exactly the vars of
     learnt.(1..); a literal is redundant iff every other literal of its
     antecedent is already in the clause or false at level 0. *)
  let covered q = t.seen.(Lit.var q) || t.level.(Lit.var q) = 0 in
  let redundant q =
    let r = t.reason.(Lit.var q) in
    if r < 0 then false
    else if r land 1 = 1 then covered (r asr 1)
    else begin
      let c = r asr 1 in
      let len = Arena.len t.arena c in
      let ok = ref true in
      for k = 1 to len - 1 do
        if not (covered (Arena.lit t.arena c k)) then ok := false
      done;
      !ok
    end
  in
  let keep = Vec.create 0 in
  Vec.push keep (Vec.get learnt 0);
  for i = 1 to Vec.size learnt - 1 do
    let q = Vec.get learnt i in
    if redundant q then t.n_lits_minimized <- t.n_lits_minimized + 1
    else Vec.push keep q
  done;
  (* Compute backtrack level: the max level among the other literals. *)
  let blevel = ref 0 in
  let swap_pos = ref 1 in
  for i = 1 to Vec.size keep - 1 do
    let lv = t.level.(Lit.var (Vec.get keep i)) in
    if lv > !blevel then begin
      blevel := lv;
      swap_pos := i
    end
  done;
  if Vec.size keep > 1 then begin
    let tmp = Vec.get keep 1 in
    Vec.set keep 1 (Vec.get keep !swap_pos);
    Vec.set keep !swap_pos tmp
  end;
  (* Clear seen flags, including vars of minimized-away literals. *)
  for i = 0 to Vec.size learnt - 1 do
    t.seen.(Lit.var (Vec.get learnt i)) <- false
  done;
  (Array.init (Vec.size keep) (Vec.get keep), !blevel)

(* Final-conflict analysis over assumptions (MiniSat's analyzeFinal).
   Given literals false under the current assignment, walk the trail from
   the top down to the first decision, expanding reasons; reason-less
   trail literals above level 0 are assumption decisions (search only
   calls this while the trail holds assumption levels exclusively), and
   the set of those reached is the subset of failed assumptions — an
   unsat core over the assumption set.  Returns internal literals. *)
let analyze_final_from t false_lits =
  if decision_level t = 0 then []
  else begin
    let marked = Vec.create 0 in
    let mark q =
      let v = Lit.var q in
      if (not t.seen.(v)) && t.level.(v) > 0 then begin
        t.seen.(v) <- true;
        Vec.push marked v
      end
    in
    List.iter mark false_lits;
    let out = ref [] in
    for i = Vec.size t.trail - 1 downto Vec.get t.trail_lim 0 do
      let l = Vec.get t.trail i in
      if t.seen.(Lit.var l) then begin
        let r = t.reason.(Lit.var l) in
        if r < 0 then out := l :: !out (* an assumption decision *)
        else if r land 1 = 1 then mark (r asr 1)
        else Arena.iter_lits mark t.arena (r asr 1)
      end
    done;
    Vec.iter (fun v -> t.seen.(v) <- false) marked;
    !out
  end

(* Add a clause given in internal literal encoding.  Performs top-level
   simplification: removes duplicate/false literals, detects tautologies. *)
let add_clause_internal t (a : int array) =
  if t.ok then begin
    let n = Array.length a in
    (* In-place insertion sort: problem clauses are short (the translate
       layer emits 2-3 literal Tseitin definitions by the thousand), so
       this beats a polymorphic sort and allocates nothing. *)
    for i = 1 to n - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done;
    (* One pass over the sorted literals: drop duplicates (adjacent),
       detect tautologies ([l] and [negate l] differ only in bit 0, so
       they are adjacent too), drop literals false at level 0 and detect
       clauses already satisfied there.  Survivors are compacted into the
       prefix [a.(0 .. !w - 1)]. *)
    let w = ref 0 and prev = ref (-1) in
    let taut = ref false and satisfied = ref false in
    let i = ref 0 in
    while (not !taut) && (not !satisfied) && !i < n do
      let l = a.(!i) in
      if l <> !prev then begin
        if l lxor !prev = 1 then taut := true
        else begin
          (match value_lit t l with
          | LTrue when t.level.(Lit.var l) = 0 -> satisfied := true
          | LFalse when t.level.(Lit.var l) = 0 -> ()
          | _ ->
              a.(!w) <- l;
              incr w);
          prev := l
        end
      end;
      incr i
    done;
    if not (!taut || !satisfied) then
      match !w with
      | 0 -> t.ok <- false
      | 1 ->
          let l = a.(0) in
          if value_lit t l = LFalse then t.ok <- false
          else if value_lit t l = LUndef then begin
            assert (decision_level t = 0);
            enqueue t l no_reason;
            if propagate t <> CNone then t.ok <- false
          end
      | 2 -> add_binary t ~learnt:false a.(0) a.(1)
      | w ->
          let lits = if w = n then a else Array.sub a 0 w in
          let c = Arena.alloc t.arena ~learnt:false ~act:0 lits in
          Vec.push t.clauses c;
          attach t c
  end

(* Public clause interface: DIMACS-style signed integers.  Adding a clause
   invalidates the current model: the solver backtracks to the root level
   so the clause can be simplified against level-0 facts only.  Model
   values must be read before clauses are added.  [add_clause_arr] takes
   ownership of its argument (converted to the internal encoding and
   sorted in place) — it exists for the Tseitin emitter, which adds
   thousands of 2-3 literal definitions on the translate hot path. *)
let add_clause_arr t a =
  t.model_valid <- false;
  cancel_until t 0;
  for i = 0 to Array.length a - 1 do
    let s = a.(i) in
    let v = abs s in
    if v = 0 then invalid_arg "Solver.add_clause: zero literal";
    while v > t.nvars do
      ignore (new_var t)
    done;
    a.(i) <- Lit.of_int s
  done;
  add_clause_internal t a

let add_clause t lits = add_clause_arr t (Array.of_list lits)

(* Activation-literal support for assumption-guarded temporary clauses
   (the delta sessions of [Solve.attach]).  At most one activation variable is live;
   retiring it adds the unit clause [-act], permanently satisfying every
   clause it guards, and the next acquisition allocates a fresh one. *)
let activation_var t =
  if t.act_live = 0 then t.act_live <- new_var t;
  t.act_live

let retire_activation t =
  if t.act_live <> 0 then begin
    let act = t.act_live in
    t.act_live <- 0;
    t.n_act_retired <- t.n_act_retired + 1;
    add_clause t [ -act ]
  end

let activation_counts t =
  ((if t.act_live = 0 then 0 else 1), t.n_act_retired)

(* Luby restart sequence, following the classical MiniSat formulation. *)
let luby y x =
  let size = ref 1 and seq = ref 0 in
  while !size < x + 1 do
    incr seq;
    size := (2 * !size) + 1
  done;
  let x = ref x in
  while !size - 1 <> !x do
    size := (!size - 1) / 2;
    decr seq;
    x := !x mod !size
  done;
  y ** float_of_int !seq

let pick_branch_var t =
  let rec go () =
    if Heap.is_empty t.heap then -1
    else
      let v = Heap.remove_max t.heap in
      if t.assigns.(v) = LUndef then v else go ()
  in
  go ()

type result = Sat | Unsat | Unknown

(* A resource budget for one [solve] call.  [None] fields are unlimited;
   exhausting either bound makes the call return [Unknown] (the model, if
   any, is invalidated, but the solver remains usable: learnt clauses are
   kept, and a later unbudgeted call can finish the search). *)
type budget = {
  b_max_conflicts : int option;  (* conflicts this call may spend *)
  b_max_time_ms : float option;  (* wall-clock milliseconds for this call *)
}

let no_budget = { b_max_conflicts = None; b_max_time_ms = None }

exception Unsat_exc

let set_learnt_limit t n = t.learnt_limit <- max 1 n

(* The CDCL search loop.  [assumptions] are internal literals decided first,
   in order; a conflict forcing their negation yields Unsat.  [conflict_cap]
   is an absolute bound on [t.n_conflicts]; [t.deadline] an absolute
   wall-clock time.  Crossing either raises [Budget_exc].  The deadline is
   polled every 64 conflicts, every 16 decisions, and (inside [propagate])
   every 256 propagated literals — the decision and propagation polls keep
   a conflict-free but propagation-heavy search from overrunning its time
   budget, while staying off the per-watcher hot path. *)
let search t assumptions ~conflict_cap =
  let conflicts_budget = ref 100 in
  let restart_count = ref 0 in
  let rec loop () =
    match propagate t with
    | (CRef _ | CBin _) as confl ->
        t.n_conflicts <- t.n_conflicts + 1;
        if t.n_conflicts >= conflict_cap then raise Budget_exc;
        if
          t.deadline < infinity
          && t.n_conflicts land 63 = 0
          && Unix.gettimeofday () > t.deadline
        then raise Budget_exc;
        decr conflicts_budget;
        if decision_level t = 0 then begin
          (* Conflict with no decisions: the clauses alone are unsat, so
             no assumption is to blame — and the solver is unsat forever.
             Marking [ok] here matters: [propagate] drains its queue on
             conflict, so the falsified clause would never be revisited
             and a later solve could wrongly answer Sat. *)
          t.conflict_core <- [||];
          t.ok <- false;
          raise Unsat_exc
        end;
        (* A conflict at or below the assumption prefix means the
           assumptions themselves are inconsistent with the clauses. *)
        let learnt, blevel = analyze t confl in
        let n_assumed =
          (* number of assumption decisions currently on the trail *)
          min (decision_level t) (List.length assumptions)
        in
        cancel_until t blevel;
        let r =
          if Array.length learnt = 1 then no_reason else new_learnt t learnt
        in
        if blevel < n_assumed then begin
          (* The learnt clause is asserting below an assumption level:
             check whether it contradicts the assumptions. *)
          if value_lit t learnt.(0) = LFalse then begin
            t.conflict_core <-
              Array.of_list
                (analyze_final_from t (Array.to_list learnt));
            raise Unsat_exc
          end;
          if value_lit t learnt.(0) = LUndef then enqueue t learnt.(0) r
        end
        else enqueue t learnt.(0) r;
        var_decay t;
        cla_decay t;
        loop ()
    | CNone ->
        if !conflicts_budget <= 0 then begin
          (* Restart: keep assumptions, drop other decisions. *)
          t.n_restarts <- t.n_restarts + 1;
          incr restart_count;
          conflicts_budget :=
            int_of_float (100.0 *. luby 2.0 !restart_count);
          cancel_until t 0;
          loop ()
        end
        else begin
          (* Learnt-database housekeeping: when the database outgrows its
             (slowly growing) capacity, drop the cold half. *)
          if Vec.size t.learnts - Vec.size t.trail >= t.learnt_limit then begin
            reduce_db t;
            t.learnt_limit <- t.learnt_limit + (t.learnt_limit / 10) + 1
          end;
          (* Re-establish assumptions as the first decisions. *)
          let dl = decision_level t in
          let rec assume i = function
            | [] -> None
            | a :: rest ->
                if i < dl then assume (i + 1) rest
                else begin
                  match value_lit t a with
                  | LTrue ->
                      (* already implied: introduce an empty decision level
                         to keep the prefix aligned *)
                      Vec.push t.trail_lim (Vec.size t.trail);
                      assume (i + 1) rest
                  | LFalse ->
                      (* Assumption [a] already false: the failed set is
                         [a] plus whatever forced its negation. *)
                      t.conflict_core <-
                        Array.of_list (a :: analyze_final_from t [ a ]);
                      raise Unsat_exc
                  | LUndef ->
                      Vec.push t.trail_lim (Vec.size t.trail);
                      enqueue t a no_reason;
                      Some ()
                end
          in
          match assume 0 assumptions with
          | Some () -> loop ()
          | None ->
              let v = pick_branch_var t in
              if v < 0 then Sat
              else begin
                t.n_decisions <- t.n_decisions + 1;
                if
                  t.deadline < infinity
                  && t.n_decisions land 15 = 0
                  && Unix.gettimeofday () > t.deadline
                then raise Budget_exc;
                Vec.push t.trail_lim (Vec.size t.trail);
                enqueue t (Lit.of_var v ~sign:t.polarity.(v)) no_reason;
                loop ()
              end
        end
  in
  loop ()

(* Telemetry bridge: the solver's own counter fields stay the source of
   truth (O(1) plain-int increments on the hot path); after each [solve]
   the deltas are published to the metrics registry, and the per-solve
   conflict count feeds a histogram.  One registry branch per solve, not
   per propagation. *)
module Metrics = Separ_obs.Metrics

let m_solves = Metrics.counter "sat.solves"
let m_unknowns = Metrics.counter "sat.unknowns"
let m_conflicts = Metrics.counter "sat.conflicts"
let m_decisions = Metrics.counter "sat.decisions"
let m_propagations = Metrics.counter "sat.propagations"
let m_restarts = Metrics.counter "sat.restarts"
let m_learnts_deleted = Metrics.counter "sat.learnts_deleted"
let m_lits_minimized = Metrics.counter "sat.lits_minimized"
let m_db_reductions = Metrics.counter "sat.db_reductions"

let m_conflicts_per_solve =
  Metrics.histogram
    ~buckets:[| 0.; 1.; 10.; 100.; 1000.; 10_000.; 100_000. |]
    "sat.conflicts_per_solve"

let solve ?(assumptions = []) ?(budget = no_budget) t =
  t.model_valid <- false;
  t.conflict_core <- [||];
  if not t.ok then begin
    (* trivially unsat at clause-add time: the search never runs, but the
       call still counts as a solve *)
    if Metrics.is_enabled () then begin
      Metrics.incr m_solves;
      Metrics.observe m_conflicts_per_solve 0.0
    end;
    Unsat
  end
  else if
    (* A budget exhausted before the search even starts: answer [Unknown]
       immediately, so a caller passing its (possibly non-positive)
       remaining session budget degrades deterministically. *)
    (match budget.b_max_conflicts with Some c -> c <= 0 | None -> false)
    || (match budget.b_max_time_ms with Some ms -> ms <= 0.0 | None -> false)
  then begin
    if Metrics.is_enabled () then begin
      Metrics.incr m_solves;
      Metrics.incr m_unknowns;
      Metrics.observe m_conflicts_per_solve 0.0
    end;
    Unknown
  end
  else begin
    if t.learnt_limit = 0 then
      t.learnt_limit <- max 100 (n_clauses t / 3);
    List.iter
      (fun i ->
        let v = abs i in
        if v = 0 then invalid_arg "Solver.solve: zero assumption literal";
        while v > t.nvars do
          ignore (new_var t)
        done)
      assumptions;
    let ext_assumptions = assumptions in
    let assumptions = List.map Lit.of_int assumptions in
    cancel_until t 0;
    let conflicts0 = t.n_conflicts
    and decisions0 = t.n_decisions
    and propagations0 = t.n_propagations
    and restarts0 = t.n_restarts
    and deleted0 = t.n_learnts_deleted
    and minimized0 = t.n_lits_minimized
    and reductions0 = t.n_reduce_db in
    let publish () =
      if Metrics.is_enabled () then begin
        Metrics.incr m_solves;
        Metrics.add m_conflicts (t.n_conflicts - conflicts0);
        Metrics.add m_decisions (t.n_decisions - decisions0);
        Metrics.add m_propagations (t.n_propagations - propagations0);
        Metrics.add m_restarts (t.n_restarts - restarts0);
        Metrics.add m_learnts_deleted (t.n_learnts_deleted - deleted0);
        Metrics.add m_lits_minimized (t.n_lits_minimized - minimized0);
        Metrics.add m_db_reductions (t.n_reduce_db - reductions0);
        Metrics.observe m_conflicts_per_solve
          (float_of_int (t.n_conflicts - conflicts0))
      end
    in
    let conflict_cap =
      match budget.b_max_conflicts with
      | Some c -> t.n_conflicts + c
      | None -> max_int
    in
    t.deadline <-
      (match budget.b_max_time_ms with
      | Some ms -> Unix.gettimeofday () +. (ms /. 1000.0)
      | None -> infinity);
    let result =
      match search t assumptions ~conflict_cap with
      | Sat ->
          t.model_valid <- true;
          Sat
      | Unsat -> Unsat
      | Unknown -> Unknown (* search never returns this; for exhaustiveness *)
      | exception Unsat_exc ->
          cancel_until t 0;
          (* Normalize the failed-assumption core: restrict the caller's
             assumption list (preserving its order, without duplicates) to
             the literals blamed by the final-conflict analysis. *)
          let core = Array.to_list t.conflict_core in
          let rec restrict kept = function
            | [] -> List.rev kept
            | a :: rest ->
                if List.mem a kept || not (List.mem (Lit.of_int a) core)
                then restrict kept rest
                else restrict (a :: kept) rest
          in
          t.conflict_core <-
            Array.of_list
              (List.map Lit.of_int (restrict [] ext_assumptions));
          Unsat
      | exception Budget_exc ->
          (* Budget exhausted mid-search: drop the partial assignment but
             keep everything learnt, so a later call resumes cheaper. *)
          cancel_until t 0;
          if Metrics.is_enabled () then Metrics.incr m_unknowns;
          Unknown
    in
    t.deadline <- infinity;
    publish ();
    result
  end

(* Model access: valid only while the last operation was a [solve] that
   returned [Sat]; adding a clause (which backtracks to the root level)
   or an Unsat solve invalidates the assignment. *)
let value t v =
  if v < 1 || v > t.nvars then invalid_arg "Solver.value";
  if not t.model_valid then
    invalid_arg "Solver.value: no model (last operation was not a Sat solve)";
  match t.assigns.(v - 1) with
  | LTrue -> true
  | LFalse -> false
  | LUndef -> false (* unconstrained variables default to false *)

let model t =
  if not t.model_valid then
    invalid_arg "Solver.model: no model (last operation was not a Sat solve)";
  Array.init t.nvars (fun i -> value t (i + 1))

(* The failed-assumption set of the most recent [solve]: the subset of
   that call's assumption literals (in the order given, deduplicated)
   whose conjunction the solver refuted.  Empty unless the call returned
   [Unsat] under assumptions; empty on an [Unsat] caused by the clauses
   alone. *)
let failed_assumptions t =
  List.map Lit.to_int (Array.to_list t.conflict_core)

type stats_record = {
  s_vars : int;
  s_clauses : int;
  s_learnts : int;
  s_peak_learnts : int;
  s_conflicts : int;
  s_decisions : int;
  s_propagations : int;
  s_restarts : int;
  s_db_reductions : int;
  s_learnts_deleted : int;
  s_lits_minimized : int;
  s_act_live : int;
  s_act_retired : int;
}

let stats_record t =
  let live, retired = activation_counts t in
  {
    s_vars = t.nvars;
    s_clauses = n_clauses t;
    s_learnts = n_learnt_clauses t;
    s_peak_learnts = t.peak_learnts;
    s_conflicts = t.n_conflicts;
    s_decisions = t.n_decisions;
    s_propagations = t.n_propagations;
    s_restarts = t.n_restarts;
    s_db_reductions = t.n_reduce_db;
    s_learnts_deleted = t.n_learnts_deleted;
    s_lits_minimized = t.n_lits_minimized;
    s_act_live = live;
    s_act_retired = retired;
  }

let empty_stats =
  {
    s_vars = 0;
    s_clauses = 0;
    s_learnts = 0;
    s_peak_learnts = 0;
    s_conflicts = 0;
    s_decisions = 0;
    s_propagations = 0;
    s_restarts = 0;
    s_db_reductions = 0;
    s_learnts_deleted = 0;
    s_lits_minimized = 0;
    s_act_live = 0;
    s_act_retired = 0;
  }

(* Aggregate statistics across solvers: counters add, high-water marks
   take the maximum. *)
let sum_stats a b =
  {
    s_vars = a.s_vars + b.s_vars;
    s_clauses = a.s_clauses + b.s_clauses;
    s_learnts = a.s_learnts + b.s_learnts;
    s_peak_learnts = max a.s_peak_learnts b.s_peak_learnts;
    s_conflicts = a.s_conflicts + b.s_conflicts;
    s_decisions = a.s_decisions + b.s_decisions;
    s_propagations = a.s_propagations + b.s_propagations;
    s_restarts = a.s_restarts + b.s_restarts;
    s_db_reductions = a.s_db_reductions + b.s_db_reductions;
    s_learnts_deleted = a.s_learnts_deleted + b.s_learnts_deleted;
    s_lits_minimized = a.s_lits_minimized + b.s_lits_minimized;
    s_act_live = a.s_act_live + b.s_act_live;
    s_act_retired = a.s_act_retired + b.s_act_retired;
  }
