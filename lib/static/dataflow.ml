(* A generic forward worklist dataflow engine over a method's
   instruction-level control flow.  The client supplies the lattice
   (bottom, join, equality) and the transfer function; the engine
   iterates to a fixpoint and returns the state *before* each
   instruction. *)

open Separ_dalvik

type 'a lattice = {
  bot : 'a;
  join : 'a -> 'a -> 'a;
  equal : 'a -> 'a -> bool;
}

(* [entry] is the state before instruction 0.  [transfer i instr s] is the
   state after executing [instr] (at index [i]) in state [s]. *)
let forward (lat : 'a lattice) ~entry ~transfer (m : Ir.meth) : 'a array =
  let n = Array.length m.Ir.body in
  if n = 0 then [||]
  else begin
    let inb = Array.make n lat.bot in
    inb.(0) <- entry;
    let dirty = Array.make n false in
    dirty.(0) <- true;
    let queue = Queue.create () in
    Queue.add 0 queue;
    while not (Queue.is_empty queue) do
      let i = Queue.take queue in
      dirty.(i) <- false;
      let out = transfer i m.Ir.body.(i) inb.(i) in
      Cfg.iter_succs m i (fun j ->
          let merged = lat.join inb.(j) out in
          if not (lat.equal merged inb.(j)) then begin
            inb.(j) <- merged;
            if not dirty.(j) then begin
              dirty.(j) <- true;
              Queue.add j queue
            end
          end)
    done;
    inb
  end
