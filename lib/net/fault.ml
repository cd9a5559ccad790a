open Lbcc_util

type spec = {
  drop_prob : float;
  duplicate_prob : float;
  crashes : (int * int) list;
  adversarial_drops : int;
  corrupt_prob : float;
  byzantine : int list;
  byz_prob : float;
}

(* No command sets [adversarial_drops], but the faulty rows of the golden
   fingerprints (test/fp/fp.ml) run with an adversarial budget. *)
let spec ?(drop_prob = 0.0) ?(duplicate_prob = 0.0) ?(crashes = [])
    (* lbcc-lint: allow typ-dead-option *)
    ?(adversarial_drops = 0) ?(corrupt_prob = 0.0) ?(byzantine = [])
    ?(byz_prob = 0.0) () =
  {
    drop_prob;
    duplicate_prob;
    crashes;
    adversarial_drops;
    corrupt_prob;
    byzantine;
    byz_prob;
  }

type t = {
  sd : int;
  drop_prob : float;
  duplicate_prob : float;
  crash_at : (int, int) Hashtbl.t; (* vertex -> earliest crash superstep *)
  drop_salt : int;
  dup_salt : int;
  mutable adversarial_left : int;
  adversarial_budget : int;
  mutable dropped : int;
  mutable duplicated : int;
  corrupt_prob : float;
  byz_prob : float;
  byz : (int, unit) Hashtbl.t; (* Byzantine vertex set *)
  corrupt_salt : int;
  byz_salt : int;
  byz_drop_salt : int;
  mutable corrupted : int;
  mutable equivocated : int;
}

let check_prob name p =
  if not (p >= 0.0 && p < 1.0) then
    invalid_arg (Printf.sprintf "Fault.create: %s must be in [0, 1)" name)

let create ?(seed = 1) (s : spec) =
  check_prob "drop_prob" s.drop_prob;
  check_prob "duplicate_prob" s.duplicate_prob;
  check_prob "corrupt_prob" s.corrupt_prob;
  check_prob "byz_prob" s.byz_prob;
  if s.adversarial_drops < 0 then
    invalid_arg "Fault.create: adversarial_drops must be >= 0";
  let crash_at = Hashtbl.create 8 in
  List.iter
    (fun (v, r) ->
      if r < 1 then invalid_arg "Fault.create: crash superstep must be >= 1";
      match Hashtbl.find_opt crash_at v with
      | Some r' when r' <= r -> ()
      | _ -> Hashtbl.replace crash_at v r)
    s.crashes;
  let byz = Hashtbl.create 8 in
  List.iter
    (fun v ->
      if v < 0 then invalid_arg "Fault.create: byzantine vertex must be >= 0";
      Hashtbl.replace byz v ())
    s.byzantine;
  (* Independent per-purpose key material from the one seed: each salt is a
     whole split stream collapsed to its first output.  New salts draw
     after the historical two, so pre-Byzantine schedules are unchanged. *)
  let g = Prng.create seed in
  let salt () = Int64.to_int (Prng.next_int64 (Prng.split g)) land max_int in
  let drop_salt = salt () in
  let dup_salt = salt () in
  let corrupt_salt = salt () in
  let byz_salt = salt () in
  let byz_drop_salt = salt () in
  {
    sd = seed;
    drop_prob = s.drop_prob;
    duplicate_prob = s.duplicate_prob;
    crash_at;
    drop_salt;
    dup_salt;
    adversarial_left = s.adversarial_drops;
    adversarial_budget = s.adversarial_drops;
    dropped = 0;
    duplicated = 0;
    corrupt_prob = s.corrupt_prob;
    byz_prob = s.byz_prob;
    byz;
    corrupt_salt;
    byz_salt;
    byz_drop_salt;
    corrupted = 0;
    equivocated = 0;
  }

let is_lossless t =
  Float.equal t.drop_prob 0.0
  && Float.equal t.duplicate_prob 0.0
  && Hashtbl.length t.crash_at = 0
  && t.adversarial_budget = 0
  && Float.equal t.corrupt_prob 0.0
  && (Hashtbl.length t.byz = 0 || Float.equal t.byz_prob 0.0)

let crashed t ~vertex ~round =
  match Hashtbl.find_opt t.crash_at vertex with
  | Some r -> round >= r
  | None -> false

let is_byzantine t v = Hashtbl.mem t.byz v
let byzantine_count t = Hashtbl.length t.byz
let max_tolerated ~n = (n - 1) / 3

(* A decision is a pure function of (salt, round, src, dst): hash the
   coordinates into a fresh SplitMix stream and take its first float.  Query
   order therefore cannot perturb the schedule. *)
let key salt ~round ~src ~dst =
  salt
  lxor (round * 0x9E3779B1)
  lxor (src * 0x85EBCA77)
  lxor (dst * 0xC2B2AE3D)

let coin salt ~round ~src ~dst ~p =
  p > 0.0 && Prng.first_bernoulli (key salt ~round ~src ~dst) p

(* Coin and per-delivery key material from one stream: the first draw is
   the decision, the second is the tamper salt handed to the caller.  Only
   a tampered verdict allocates (its [Some]). *)
let coin_with_salt salt ~round ~src ~dst ~p =
  if p <= 0.0 then None
  else
    let k = key salt ~round ~src ~dst in
    if Prng.first_bernoulli k p then Some (Prng.second_int k) else None

let copies t ~round ~src ~dst =
  if coin t.drop_salt ~round ~src ~dst ~p:t.drop_prob then begin
    t.dropped <- t.dropped + 1;
    0
  end
  else if
    (* Silent-drop adversary.  With a Byzantine vertex set the budget is
       targeted: only deliveries from Byzantine senders are destroyed, and
       only when the (deterministic) silent-drop coin fires.  Without one,
       the historical worst-case behavior stands: the first
       [adversarial_drops] surviving deliveries die in engine order. *)
    t.adversarial_left > 0
    && (Hashtbl.length t.byz = 0
       || (is_byzantine t src
          && coin t.byz_drop_salt ~round ~src ~dst ~p:t.byz_prob))
  then begin
    t.adversarial_left <- t.adversarial_left - 1;
    t.dropped <- t.dropped + 1;
    0
  end
  else if coin t.dup_salt ~round ~src ~dst ~p:t.duplicate_prob then begin
    t.duplicated <- t.duplicated + 1;
    2
  end
  else 1

let tamper t ~round ~src ~dst =
  match coin_with_salt t.corrupt_salt ~round ~src ~dst ~p:t.corrupt_prob with
  | Some _ as verdict ->
      t.corrupted <- t.corrupted + 1;
      verdict
  | None ->
      if is_byzantine t src then
        match coin_with_salt t.byz_salt ~round ~src ~dst ~p:t.byz_prob with
        | Some _ as verdict ->
            (* Keyed on (round, src, dst): two receivers of the same
               broadcast draw different salts, so a tampering Byzantine
               sender equivocates by construction. *)
            t.equivocated <- t.equivocated + 1;
            verdict
        | None -> None
      else None

let equivocates t =
  Hashtbl.length t.byz > 0 && not (Float.equal t.byz_prob 0.0)

let adversarial_spent t = t.adversarial_budget - t.adversarial_left

let pp ppf t =
  Format.fprintf ppf
    "@[<h>faults seed=%d drop=%.3f dup=%.3f crashes=%d adversary=%d/%d \
     corrupt=%.3f byz=%d@%.3f (dropped=%d duplicated=%d corrupted=%d \
     equivocated=%d)@]"
    t.sd t.drop_prob t.duplicate_prob
    (Hashtbl.length t.crash_at)
    (adversarial_spent t) t.adversarial_budget t.corrupt_prob
    (Hashtbl.length t.byz) t.byz_prob t.dropped t.duplicated t.corrupted
    t.equivocated
