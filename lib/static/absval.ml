(* The abstract value domain of the combined analysis: for each register
   (and heap location) we track, simultaneously,

   - the set of string constants it may hold (string constant propagation,
     with a top element for unbounded sets),
   - the intent allocation sites it may point to,
   - whether it may be the component's *incoming* intent,
   - the taint set: the sensitive resources its contents derive from, and
   - the permission checks whose result it may hold (feeding the
     permission-guard analysis).

   All facets join by union, so the product is a finite-height lattice
   (strings are capped at [max_strings]). *)

module SS = Set.Make (String)

module RS = Set.Make (struct
  type t = Separ_android.Resource.t

  let compare = Separ_android.Resource.compare
end)

module IS = Set.Make (Int)

let max_strings = 8

type t = {
  strs : SS.t;
  str_top : bool;
  sites : IS.t;        (* intent allocation sites (global numbering) *)
  incoming : bool;     (* may be the intent that started the component *)
  taints : RS.t;
  perm_checks : SS.t;  (* permission names whose check result this holds *)
}

let bot =
  {
    strs = SS.empty;
    str_top = false;
    sites = IS.empty;
    incoming = false;
    taints = RS.empty;
    perm_checks = SS.empty;
  }

let of_string s = { bot with strs = SS.singleton s }
let str_top = { bot with str_top = true }
let of_site i = { bot with sites = IS.singleton i }
let incoming_intent = { bot with incoming = true }
let of_taints rs = { bot with taints = RS.of_list rs }
let of_perm_check p = { bot with perm_checks = SS.singleton p }

let join a b =
  if a == b then a
  else
    let strs = SS.union a.strs b.strs in
    let str_top = a.str_top || b.str_top || SS.cardinal strs > max_strings in
    {
      (* top carries no strings, so a value has one representation *)
      strs = (if str_top then SS.empty else strs);
      str_top;
      sites = IS.union a.sites b.sites;
      incoming = a.incoming || b.incoming;
      taints = RS.union a.taints b.taints;
      perm_checks = SS.union a.perm_checks b.perm_checks;
    }

let equal a b =
  a == b
  || SS.equal a.strs b.strs
     && a.str_top = b.str_top
     && IS.equal a.sites b.sites
     && a.incoming = b.incoming
     && RS.equal a.taints b.taints
     && SS.equal a.perm_checks b.perm_checks

(* The resolved strings: [None] when the value is statically unknown. *)
let strings v = if v.str_top then None else Some (SS.elements v.strs)

let taint_list v = RS.elements v.taints
