(* The JSON writer lives in [Separ_obs.Json], next to the log and
   metric code that writes through it.  This alias stays because
   separbench's [util.ml] names [Separ_report.Json] and prints its
   result line through it. *)
include Separ_obs.Json
