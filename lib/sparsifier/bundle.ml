module Spanner = Lbcc_spanner.Spanner

type result = { bundle : int list; rejected : int list }

let run ?accountant ~prng ~k ~t (st : Spanner.state) =
  if t < 1 then invalid_arg "Bundle.run: t must be >= 1";
  let bundle = ref [] and rejected = ref [] in
  for _i = 1 to t do
    (* Each spanner sees only the edges earlier spanners left undecided. *)
    let r = Spanner.run_on ?accountant ~prng ~k st in
    List.iter
      (fun e ->
        st.live.(e) <- false;
        st.p.(e) <- 1.0)
      r.Spanner.fplus;
    List.iter (fun e -> st.live.(e) <- false) r.Spanner.fminus;
    bundle := r.Spanner.fplus :: !bundle;
    rejected := r.Spanner.fminus :: !rejected
  done;
  let bundle = List.sort Int.compare (List.concat !bundle) in
  List.iter (fun e -> st.live.(e) <- true) bundle;
  { bundle; rejected = List.sort Int.compare (List.concat !rejected) }
