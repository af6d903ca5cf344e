(** A register-based intermediate representation modelled on Dalvik
    bytecode: flat instruction arrays over virtual registers, labels for
    branch targets, field and array access, and invoke/move-result
    pairs.  Both the static analyses and the runtime interpreter consume
    this IR.

    A {!meth} is built only by {!make_method}, which checks it and
    resolves every branch to the index of its [Label] once: the
    interpreter jumps through [targets] and the analyses read
    successors from it, so no consumer looks a label up. *)

type reg = int
type const = Cstr of string | Cint of int | Cnull
type invoke_kind = Virtual | Static
type label = string

type instr =
  | Const of reg * const
  | Move of reg * reg
  | New_instance of reg * string            (** dst, class *)
  | Invoke of invoke_kind * Separ_android.Api.method_ref * reg list
  | Move_result of reg
  | Iget of reg * reg * string              (** dst, object, field *)
  | Iput of reg * reg * string              (** src, object, field *)
  | Sget of reg * string
  | Sput of reg * string
  | New_array of reg * reg                  (** dst, size *)
  | Aget of reg * reg * reg                 (** dst, array, index *)
  | Aput of reg * reg * reg                 (** src, array, index *)
  | If_eqz of reg * label
  | If_nez of reg * label
  | Goto of label
  | Label of label
  | Return of reg option
  | Nop

type meth = private {
  mname : string;
  n_params : int;  (** parameters arrive in registers 0 .. n_params-1 *)
  n_regs : int;
  body : instr array;
  targets : int array;
      (** for a branch at [i] ([If_eqz], [If_nez], [Goto]), the index of
          the [Label] it names; [-1] for every other instruction *)
}

(** [make_method ~name ~n_params ~n_regs body] checks that labels are
    unique, registers are below [n_regs], every branch names a label of
    [body] and move-result only follows an invoke, then resolves the
    branch targets.
    @raise Failure on violations. *)
val make_method : name:string -> n_params:int -> n_regs:int -> instr array -> meth

type cls = {
  cname : string;
  methods : meth list;
}

val find_method : cls -> string -> meth option
val size_of_method : meth -> int
val size_of_class : cls -> int
val pp_const : Format.formatter -> const -> unit
val pp_instr : Format.formatter -> instr -> unit
val pp_method : Format.formatter -> meth -> unit
val pp_class : Format.formatter -> cls -> unit
