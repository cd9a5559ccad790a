(* Entry point: one workload per process, on a single worker lane.  Results
   are bit-identical at any lane count (the library guarantees it), so
   pinning one lane changes only wall time and keeps the host's scheduler
   out of the figures. *)

let () =
  let args = Common.parse_args Sys.argv in
  Lbcc_util.Pool.set_default_domains 1;
  Printf.printf "perfbench workload=%s seed=%d seconds=%g trace=%d lanes=%d nproc=%d ocaml=%s\n%!"
    args.Common.workload args.Common.seed args.Common.seconds
    (if args.Common.trace then 1 else 0)
    (Lbcc_util.Pool.size (Lbcc_util.Pool.default ()))
    (Common.nproc ()) Sys.ocaml_version;
  match args.Common.workload with
  | "prepare" -> Wl_prepare.main args
  | "mincostflow" -> Wl_mincostflow.main args
  | "dist" -> Wl_dist.main args
  | "serve" -> Wl_serve.main args
  | _ -> Common.usage ()
