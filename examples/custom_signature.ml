(* SEPAR's plugin architecture: registering a user-defined vulnerability
   signature and having the whole pipeline — synthesis, scenario
   decoding, policy derivation — pick it up.

   The plugin below flags *broadcast sniffing surface*: a device
   component broadcasts a sensitive payload with an implicit intent that
   carries a DEFAULT-category, making it trivially interceptable by any
   later-installed receiver (a stricter variant of intent hijack that
   only looks at broadcasts).

     dune exec examples/custom_signature.exe *)

open Separ
open Separ_relog.Ast.Dsl
module Encode = Separ_specs.Encode
module B = Builder

let broadcast_sniffing : Signatures.t =
  {
    Signatures.name = "broadcast_sniffing";
    config = { Encode.with_mal_intent = false; with_mal_filter = true };
    witnesses = [ ("sniffedIntent", Encode.Wintent) ];
    formula =
      (fun env ->
        let i = Encode.witness env "sniffedIntent" in
        let mf = Separ_relog.Ast.Rel env.Encode.r_mal_filter in
        let broadcast_kind =
          Separ_relog.Ast.Rel
            (List.assoc Component.Receiver env.Encode.r_kind_sets)
        in
        i <: Encode.device_intents env
        &&: ((i |. rel env.Encode.r_ikind) <: broadcast_kind)
        &&: no (i |. rel env.Encode.r_target)
        &&: some (i |. rel env.Encode.r_iextras)
        &&: Encode.action_test env i mf
        &&: Encode.category_test env i mf
        &&: Encode.data_test env i mf);
    describe =
      (fun sc ->
        match Scenario.witness1 sc "sniffedIntent" with
        | Some i -> "Broadcast " ^ i ^ " can be sniffed by any receiver."
        | None -> "broadcast sniffing");
  }

(* An app that broadcasts the contact list on the air. *)
let chatty_app () =
  Apk.make
    ~manifest:
      (Manifest.make ~package:"com.example.chatty"
         ~uses_permissions:[ Permission.read_contacts ]
         ~components:
           [ Component.make ~name:"Announcer" ~kind:Component.Activity () ]
         ())
    ~classes:
      [
        B.cls ~name:"Announcer"
          [
            B.meth ~name:"onCreate" ~params:1 (fun b ->
                let v = B.source_call b Resource.Contacts in
                let i = B.new_intent b in
                B.set_action b i "com.example.contacts.SYNCED";
                B.put_extra b i ~key:"book" ~value:v;
                B.send_broadcast b i);
          ];
      ]

let () =
  Signatures.register broadcast_sniffing;
  Fmt.pr "registered signature %S (now %d signatures)@.@."
    broadcast_sniffing.Signatures.name
    (List.length (Signatures.all ()));
  let analysis = analyze [ chatty_app () ] in
  List.iter
    (fun v ->
      if v.Ase.v_kind = "broadcast_sniffing" then
        Fmt.pr "plugin finding: %s@." v.Ase.v_scenario.Scenario.sc_description)
    (vulnerabilities analysis);
  assert (
    List.exists
      (fun v -> v.Ase.v_kind = "broadcast_sniffing")
      (vulnerabilities analysis));
  Fmt.pr "@.The plugin's scenarios flow through policy synthesis like any \
          built-in signature.@."
