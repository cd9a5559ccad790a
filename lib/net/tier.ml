type 'state result = {
  states : 'state array;
  stats : Engine.stats;
  supersteps : int;
  byz : Byzantine.Diag.t option;
}

(* The wrapped tiers spend several real supersteps per virtual one (ack
   barriers, echo cycles, retransmissions); 100x the lossless cap leaves
   them the same slack. *)
let wrapped_cap max_supersteps = 100 * max_supersteps

(* Charges land under ~label at the caller's phase scope: the dist runners
   are public API and must not impose one (fingerprint-stable). *)
let run ?accountant ?faults ?patience ~reliability ~tamper ~label ~model ~graph
    ~size_bits ~init ~step ~max_supersteps () =
  (* Checked on every tier, not only the one that reads it, so a caller's
     bad value never depends on the tier it happens to pick. *)
  (match patience with
  | Some p when p < 1 -> invalid_arg "Tier.run: patience must be >= 1"
  | _ -> ());
  match reliability with
  | Model.None ->
      let states, stats =
        (* lbcc-lint: allow typ-phase-flow *)
        Engine.run ?accountant ?faults ~tamper ~label ~model ~graph ~size_bits
          ~init ~step ~max_supersteps ()
      in
      { states; stats; supersteps = stats.Engine.supersteps; byz = None }
  | Model.Crash_safe ->
      (* The crash-safe tier's fault model is drops, duplicates and
         crashes: it supplies no payload transform, so tamper verdicts
         leave its packets intact. *)
      let r =
        (* lbcc-lint: allow typ-phase-flow *)
        Reliable.run ?accountant ?faults ?patience ~label ~model ~graph
          ~size_bits ~init ~step
          ~max_supersteps:(wrapped_cap max_supersteps)
          ()
      in
      {
        states = r.Reliable.states;
        stats = r.Reliable.stats;
        supersteps = r.Reliable.virtual_supersteps;
        byz = None;
      }
  | Model.Byzantine_safe ->
      let r =
        (* lbcc-lint: allow typ-phase-flow *)
        Byzantine.run ?accountant ?faults ~tamper ~label ~model ~graph
          ~size_bits ~init ~step
          ~max_supersteps:(wrapped_cap max_supersteps)
          ()
      in
      {
        states = r.Byzantine.states;
        stats = r.Byzantine.stats;
        supersteps = r.Byzantine.diag.Byzantine.Diag.virtual_supersteps;
        byz = Some r.Byzantine.diag;
      }
