(* Positive fixture for typ-dead-option: [Lib] plays the library, [Exe]
   the executable whose top-level bindings are the roots, and [Test] a
   test module, which is not a root.  [Lib.solve]'s [?max_iter] is
   supplied only by the test, [Lib.report]'s [?verbose] by nothing, and
   [Lib.relay] forwards its [?tol] to [Lib.solve] but no root supplies it:
   the three fire.  [Lib.solve]'s [?tol] is supplied by the root, and the
   omitted optional arguments of a full application supply nothing. *)

module Lib = struct
  let solve ?(tol = 1e-9) ?max_iter x =
    match max_iter with Some k -> x +. tol +. float_of_int k | None -> x +. tol

  let report ?(verbose = false) x = if verbose then x *. 2.0 else x
  let relay ?tol x = solve ?tol x
end

module Test = struct
  let check () = Lib.solve ~max_iter:3 1.0 > 0.0
end

module Exe = struct
  let main () = Lib.solve ~tol:1e-3 2.0 +. Lib.report 1.0 +. Lib.relay 1.0
end
