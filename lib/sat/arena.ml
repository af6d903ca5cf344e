(* Flat clause arena: every clause's literals live in one growable int
   array, and a clause is addressed by the integer offset of its header
   word ("cref").  Propagation walks contiguous memory instead of chasing
   per-clause record pointers, which is where a CDCL solver spends most
   of its cycles.

   Layout of a clause at offset [c]:

     data.(c)      header: (len lsl 2) lor (deleted lsl 1) lor learnt
     data.(c + 1)  activity slot (index into the solver's clause-activity
                   array) for learnt clauses; unused for problem clauses
     data.(c + 2 + i)  literal i, for 0 <= i < len

   Deletion is a header mark: the words are reclaimed by [move]-based
   compaction (the owner rewrites its crefs via the forwarding address
   left behind), triggered once [wasted] grows past a fraction of
   [size].  Binary clauses never enter the arena — they live inline in
   the solver's dedicated binary watch lists. *)

type t = {
  mutable data : int array;
  mutable size : int;   (* next free word *)
  mutable wasted : int; (* words held by deleted clauses *)
}

let header_words = 2

let create ?(capacity = 1024) () =
  { data = Array.make (max 16 capacity) 0; size = 0; wasted = 0 }

let ensure a n =
  if a.size + n > Array.length a.data then begin
    let cap = max (a.size + n) (2 * Array.length a.data) in
    let data = Array.make cap 0 in
    Array.blit a.data 0 data 0 a.size;
    a.data <- data
  end

(* Allocate a clause; the caller supplies the literal block. *)
let alloc a ~learnt ~act (lits : int array) =
  let len = Array.length lits in
  ensure a (len + header_words);
  let c = a.size in
  a.data.(c) <- (len lsl 2) lor (if learnt then 1 else 0);
  a.data.(c + 1) <- act;
  Array.blit lits 0 a.data (c + header_words) len;
  a.size <- a.size + len + header_words;
  c

let len a c = a.data.(c) lsr 2
let is_learnt a c = a.data.(c) land 1 <> 0
let is_deleted a c = a.data.(c) land 2 <> 0
let act_slot a c = a.data.(c + 1)
let set_act_slot a c s = a.data.(c + 1) <- s
let lit a c i = a.data.(c + header_words + i)

let delete a c =
  if not (is_deleted a c) then begin
    a.wasted <- a.wasted + len a c + header_words;
    a.data.(c) <- a.data.(c) lor 2
  end

(* Fraction of the arena held by deleted clauses; the owner compacts
   when this passes its threshold. *)
let fragmentation a =
  if a.size = 0 then 0.0 else float_of_int a.wasted /. float_of_int a.size

(* Move a live clause from [src] to [dst], leaving a forwarding address
   behind (negative header marks a moved clause; the new cref sits in
   the old activity slot).  Idempotent: moving a forwarded clause just
   returns its forwarding address. *)
let move ~src ~dst c =
  if src.data.(c) < 0 then src.data.(c + 1)
  else begin
    let n = len src c + header_words in
    ensure dst n;
    let c' = dst.size in
    Array.blit src.data c dst.data c' n;
    dst.size <- dst.size + n;
    src.data.(c) <- -1;
    src.data.(c + 1) <- c';
    c'
  end

let forwarded src c = src.data.(c) < 0
let forward src c = src.data.(c + 1)

(* Iterate the literal block of a clause. *)
let iter_lits f a c =
  let n = len a c in
  for i = 0 to n - 1 do
    f a.data.(c + header_words + i)
  done
