(* The observability layer owns the wall clock (DESIGN.md §8: the
   det-wall-clock lint rule bans clock reads everywhere else).  Code that
   needs a timestamp for *observation* — latency histograms, span timing —
   reads it through this module; nothing in the repository may branch on
   these values when deciding protocol or scheduler behaviour. *)

let now_s () = Unix.gettimeofday ()
