(* The dRMT router program the golden fixtures pin and the dRMT substrate
   and allocation tests run: an exact + lpm + ternary pipeline with
   register side effects. *)

module P4 = Druzhba_drmt.P4
module Entries = Druzhba_drmt.Entries

let name = "drmt_router"

let source =
  {|
header eth {
  dst : 48;
  etype : 16;
}
header ip {
  ttl : 8;
  src : 32;
  dst : 32;
}

action bridge(port) {
  meta.egress = port;
  reg.bridged = reg.bridged + 1;
}
action route(port) {
  meta.egress = port;
  ip.ttl = ip.ttl - 1;
  reg.routed = reg.routed + 1;
}
action toss() {
  drop;
  reg.tossed = reg.tossed + 1;
}
action audit() {
  reg.audited = reg.audited + 1;
}

table bridge_tbl {
  key : eth.dst;
  match : exact;
  actions : { bridge };
  default : bridge 1;
}
table route_tbl {
  key : ip.dst;
  match : lpm;
  actions : { route, toss };
  default : toss;
}
table audit_tbl {
  key : ip.src;
  match : ternary;
  actions : { audit, toss };
  default : audit;
}

control {
  apply bridge_tbl;
  apply route_tbl;
  apply audit_tbl;
}
|}

let entries_source =
  {|
# two learned MACs
entry bridge_tbl exact 51966 bridge 4
entry bridge_tbl exact 47806 bridge 6

# a /16 nested in a /8 over a catch-all: longest prefix must win, and the
# /0 keeps the field-mutating route action live on random traffic
entry route_tbl lpm 3232235520/8  route 2
entry route_tbl lpm 3232301056/16 route 8
entry route_tbl lpm 0/0 route 3

# sources with low byte 7 are tossed by the audit stage
entry audit_tbl ternary 7&255 toss
|}

let program () = P4.parse source

let entries () =
  match Entries.parse entries_source with
  | Ok e -> e
  | Error msg -> failwith ("drmt_router entries: " ^ msg)
